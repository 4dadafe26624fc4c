"""AXI-Pack adapter top level (paper Fig. 2b) and its banked channel stage.

The adapter owns the five burst converters.  Per cycle it:

1. retires at most one completed word access per memory port, freeing its
   slot in the issuing converter pipe;
2. runs the indirect converters' housekeeping (index extraction, beat
   planning);
3. demultiplexes at most one AR and one AW request onto the right converter;
4. routes at most one W data beat to the write converter expecting it;
5. lets the converters issue word accesses onto the free memory ports (the
   bank port mux: each port carries at most one access per cycle);
6. multiplexes at most one R beat and one B response per cycle back onto the
   AXI port — the R channel is a single physical bus, and this one-beat-per-
   cycle rule is what every utilization number in the paper is measured
   against.

Words pass between the converters and the banks through the banked
memory's per-port FIFOs of ``(pipe, batch, slot)`` tags (see
:mod:`repro.mem.banked`).  :class:`BankedChannel` is the one engine
component per banked channel: each cycle it runs the adapter's tick and
then the memory's, as two sibling calls.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.axi.port import AxiPort
from repro.axi.transaction import BusRequest
from repro.controller.base_converter import BaseAxi4Converter
from repro.controller.converter import Converter
from repro.controller.indirect_read import IndirectReadConverter
from repro.controller.indirect_write import IndirectWriteConverter
from repro.controller.strided_read import StridedReadConverter
from repro.controller.strided_write import StridedWriteConverter
from repro.errors import ProtocolError, SimulationError
from repro.mem.banked import BankedMemory
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.stats import StatsRegistry


class AxiPackAdapter:
    """Translates AXI / AXI-Pack bursts into banked word accesses.

    Not an engine component of its own: :class:`BankedChannel` ticks it
    together with its memory.  The adapter and its converters take their
    geometry from the memory's config: one word lane per memory port, and
    an AXI port exactly that many words wide.
    """

    def __init__(
        self,
        name: str,
        port: AxiPort,
        memory: BankedMemory,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        config = memory.config
        if port.bus_bytes != config.bus_bytes:
            raise ProtocolError(
                f"AXI port width {port.bus_bytes}B does not match the memory's "
                f"{config.num_ports} word ports of {config.word_bytes}B"
            )
        self.name = name
        self.port = port
        self.memory = memory
        self.stats = stats if stats is not None else StatsRegistry()

        self.base = BaseAxi4Converter(f"{name}.base", memory, self.stats)
        self.strided_read = StridedReadConverter(
            f"{name}.strided_read", memory, self.stats
        )
        self.strided_write = StridedWriteConverter(
            f"{name}.strided_write", memory, self.stats
        )
        self.indirect_read = IndirectReadConverter(
            f"{name}.indirect_read", memory, self.stats
        )
        self.indirect_write = IndirectWriteConverter(
            f"{name}.indirect_write", memory, self.stats
        )
        self.converters: List[Converter] = [
            self.base,
            self.strided_read,
            self.strided_write,
            self.indirect_read,
            self.indirect_write,
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
        # identical to the busy()/pop_ready_*() scans (a pop attempt with
        # nothing ready is a side-effect-free None) but avoids two method
        # calls per converter per cycle.
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
        #: (prebound step, index-stage burst deque) of the two converters
        #: with per-cycle housekeeping, the indirect ones
        self._stepping_info: List[Tuple] = [
            (self.indirect_read.step, self.indirect_read._index.bursts),
            (self.indirect_write.step, self.indirect_write._index.bursts),
        ]
        #: write converters in AW-acceptance order still owed W beats;
        #: ``None`` for a lost burst, whose beats are discarded
        self._w_routing: Deque[Tuple[Optional[Converter], int]] = deque()
        #: whether a fault plan may lose bursts on this channel, so that
        #: fault-free runs skip :meth:`BankedMemory.loses` per request
        self._may_lose = not memory.fault_free()
        self._issue_rr = 0
        self._emit_rr = 0
        self._last_tick: Optional[int] = None
        self._outstanding_words = 0  #: word accesses issued, not yet retired
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
        self._req_fifos = memory.req_fifos
        self._req_pushed_at = memory.req_pushed_at
        self._req_depth = config.queue_depth
        #: bit mask of every memory word port (see BankedMemory.req_full)
        self._all_ports = (1 << config.num_ports) - 1
        self._rsp_fifos = memory.rsp_fifos
        self._ar = port.ar
        self._aw = port.aw
        self._w = port.w
        self._r = port.r
        self._b = port.b
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
    def tick(self, cycle: int) -> int:
        """Advance the adapter by one cycle.

        Returns how many words it moved through the memory's port FIFOs
        (responses retired plus requests issued), which the channel stage
        counts as forward progress.
        """
        if self._last_tick is not None and cycle - self._last_tick > 1:
            # The adapter slept since ``_last_tick``.  Ticked every cycle,
            # it would have rotated the issue round-robin pointer on each of
            # those cycles — provided at least one word port was free
            # (``_issue_words`` returns before the rotation when every
            # request FIFO is full).  The channel stage skips the adapter
            # only while its AXI port queues are quiet and no word moved
            # through the memory FIFOs on the previous cycle, and the
            # adapter ticks before the memory within a cycle, so every
            # slept-through cycle observes the request-FIFO occupancy as it
            # stood at the end of the last tick's issue phase (a grant that
            # frees a port makes the adapter due on the *next* cycle and is
            # never visible to the skipped tick of its own cycle).
            # Replaying from that captured state reconstructs the
            # tick-every-cycle behaviour exactly.
            if self._ports_free_after_issue:
                skipped = cycle - self._last_tick - 1
                self._issue_rr = (self._issue_rr + skipped) % len(self.converters)
        self._last_tick = cycle
        moved = self._retire_words() if self._outstanding_words else 0
        for step, bursts in self._stepping_info:
            # An indirect converter with no burst has nothing to extract or
            # plan.
            if bursts:
                step(cycle)
        self._demux_requests()
        if self._w_routing:
            self._route_w_data()
        moved += self._issue_words(cycle)
        if self._open_read_bursts:
            self._emit_r_beat()
        if self._open_write_bursts:
            self._emit_b_beat()
        return moved

    # -------------------------------------------------------------- responses
    def _retire_words(self) -> int:
        """Pop at most one completed access per port and retire it.

        Retiring drops the pending count of the word's beat (the memory
        already filled or poisoned the beat at grant) and frees the word's
        slot in the issuing pipe's per-port ``in_flight`` count.
        """
        retired = 0
        for port, responses in enumerate(self._rsp_fifos):
            if responses:
                pipe, batch, slot = responses.popleft()
                batch.beat_pending[batch.beat_of[slot]] -= 1
                in_flight = pipe.in_flight
                if in_flight[port] <= 0:
                    raise SimulationError(f"regulator underflow on port {port}")
                in_flight[port] -= 1
                retired += 1
        self._outstanding_words -= retired
        return retired

    # ---------------------------------------------------------------- demux
    def _demux_requests(self) -> None:
        # A burst the fault plan loses is dropped whole here: it issues no
        # word and never sees an R beat or a B response.
        ar = self._ar
        if ar._storage:
            request = ar._storage[0]
            if self._may_lose and self.memory.loses(request):
                ar.pop()
            else:
                converter = self._read_converter_for(request)
                if converter.can_accept_read(request):
                    converter.accept_read(ar.pop())
                    self._open_read_bursts += 1
                    self._c_ar_accepted.value += 1
        aw = self._aw
        if aw._storage:
            request = aw._storage[0]
            if self._may_lose and self.memory.loses(request):
                aw.pop()
                self._w_routing.append((None, request.num_beats))
            else:
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
        if converter is not None:
            converter.take_w_beat(beat.data)
        self._c_w_beats.value += 1
        if beats_left - 1 == 0:
            self._w_routing.popleft()
        else:
            self._w_routing[0] = (converter, beats_left - 1)

    # ----------------------------------------------------------------- issue
    def _issue_words(self, cycle: int) -> int:
        memory = self.memory
        full = memory.req_full
        all_ports = self._all_ports
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
            # Nothing to issue: the round-robin pointer still rotates
            # whenever at least one word port is free.
            if full != all_ports:
                self._issue_rr = (self._issue_rr + 1) % count
                self._ports_free_after_issue = True
                return 0
            self._ports_free_after_issue = False
            return 0
        # Ports whose request FIFO has room; each takes at most one word.
        offered = all_ports ^ full
        if not offered:
            self._ports_free_after_issue = False
            return 0
        fifos = self._req_fifos
        free_ports = offered
        rr = self._issue_rr
        for offset in range(count):
            index = rr + offset
            if index >= count:
                index -= count
            dqs = conv_unissued[index]
            # An idle converter has no slots to issue; skip the call.
            if dqs[0] or dqs[-1]:
                free_ports = converters[index].issue(free_ports, fifos)
                if not free_ports:
                    break
        self._issue_rr = (rr + 1) % count
        # Every issued word took its port's bit off ``free_ports``.
        used = offered ^ free_ports
        if not used:
            self._ports_free_after_issue = True
            return 0
        # This tick's pushes may have filled a FIFO; mark it full, so slept
        # cycles and the next issue observe the post-push occupancy.
        pushed_at = self._req_pushed_at
        depth = self._req_depth
        issued = 0
        while used:
            bit = used & -used
            port = bit.bit_length() - 1
            pushed_at[port] = cycle
            if len(fifos[port]) >= depth:
                full |= bit
            used ^= bit
            issued += 1
        memory.req_full = full
        self._ports_free_after_issue = full != all_ports
        self._outstanding_words += issued
        self._c_word_requests.value += issued
        return issued

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
                self._c_r_beats.value += 1
                self._c_r_useful.value += beat.useful_bytes
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

    # ------------------------------------------------------------ read streams
    def holds_only_reads(self) -> bool:
        """True while only the base and strided read pipes hold work.

        A write burst stays open from AW acceptance until its B response
        leaves (``_open_write_bursts``), and an indirect read keeps its
        index-stage record until its last R beat, so these two checks cover
        the write, W, B and index-stage state a read-stream macro-step does
        not simulate.
        """
        return not self._open_write_bursts and not self.indirect_read.busy()

    def end_read_stream(
        self, last_tick: Optional[int], issue_rr: int, emit_rr: int,
        ports_free_after_issue: bool, outstanding_words: int,
        open_read_bursts: int,
    ) -> None:
        """Write back the scalars a read-stream macro-step kept in locals
        (the converters' pipes and the counters were updated in place)."""
        self._last_tick = last_tick
        self._issue_rr = issue_rr
        self._emit_rr = emit_rr
        self._ports_free_after_issue = ports_free_after_issue
        self._outstanding_words = outstanding_words
        self._open_read_bursts = open_read_bursts

    # ----------------------------------------------------------------- state
    def busy(self) -> bool:
        return any(converter.busy() for converter in self.converters) or bool(
            self._w_routing
        )

    def reset(self) -> None:
        for converter in self.converters:
            converter.reset()
        self._w_routing.clear()
        self._issue_rr = 0
        self._emit_rr = 0
        self._last_tick = None
        self._outstanding_words = 0
        self._open_read_bursts = 0
        self._open_write_bursts = 0
        self._ports_free_after_issue = True


class BankedChannel(Component):
    """One banked memory channel as a single engine component.

    Each cycle it is due, the stage calls :meth:`AxiPackAdapter.tick` and
    then :meth:`BankedMemory.tick` as two sibling calls; the words between
    them move through the memory's port FIFOs, whose registered-output
    timing relies on the adapter ticking first.  Each half runs only on the
    cycles it would run on as a component of its own:

    * **the adapter** after activity on its AXI port queues (the stage's
      engine subscriptions) or after any word moved through the memory
      FIFOs on the previous cycle;
    * **the memory** after any word moved on the previous cycle, or once
      its earliest in-flight access matures.

    When neither half moved a word and no access is in flight, the stage
    sleeps (``IDLE``) until its port queues see activity.  A word moving
    through the FIFOs counts as forward progress for the engine's deadlock
    detection.  The tick-every-cycle engine runs both halves every cycle,
    which keeps it the reference the event-driven schedule is checked
    against.
    """

    def __init__(self, name: str, adapter: AxiPackAdapter) -> None:
        super().__init__(name)
        self.adapter = adapter
        self.memory = adapter.memory
        self._adapter_tick = adapter.tick
        self._memory_tick = adapter.memory.tick
        self._port_queues = adapter.port.all_queues()
        self._last_tick = -1
        #: the previous tick moved a word (true before the first tick, so
        #: that one runs both halves, as registration makes a component due)
        self._moved = True
        #: the memory's next in-flight maturity (valid while no word moves)
        self._mem_wake: float = IDLE
        #: port-queue push/pop total at the end of the previous tick, kept
        #: while an access is in flight (see :meth:`tick`)
        self._port_mark = 0

    def wake_queues(self):
        return self._port_queues

    def _port_activity(self) -> int:
        return sum(q.total_pushed + q.total_popped for q in self._port_queues)

    def tick(self, cycle: int) -> WakeHint:
        engine = self._engine
        if not engine.event_driven:
            moved = self._adapter_tick(cycle) + self._memory_tick(cycle)
            engine._activity += moved
            return cycle + 1
        last = self._last_tick
        self._last_tick = cycle
        mem_wake = self._mem_wake
        # Woken before the memory's maturity, after a move, or on the cycle
        # right after the previous tick, the adapter runs: its port queues
        # may have moved (running it when they did not is harmless, just
        # slower).  Woken exactly at a later maturity, it runs only if its
        # port queues moved since the previous tick — any such activity
        # happened on the previous cycle, or it would have woken the stage
        # earlier.
        if (
            self._moved
            or cycle < mem_wake
            or cycle == last + 1
            or self._port_activity() != self._port_mark
        ):
            moved = self._adapter_tick(cycle)
        else:
            moved = 0
        memory_due = self._moved or cycle >= mem_wake
        if memory_due:
            moved += self._memory_tick(cycle)
        if moved:
            engine._activity += moved
            self._moved = True
            return cycle + 1
        self._moved = False
        if memory_due:
            mem_wake = self._mem_wake = self.memory.next_ready(cycle)
        if mem_wake != IDLE:
            self._port_mark = self._port_activity()
        return mem_wake

    def read_stream_ready(self) -> bool:
        """True while a read-stream macro-step can advance this stage.

        The step (:mod:`repro.system.read_stream`) simulates only word
        reads of the base and strided read pipes and no fault injection.
        """
        return self.adapter.holds_only_reads() and self.memory.fault_free()

    def end_read_stream(
        self, last_tick: int, moved: bool, mem_wake: float, port_mark: int
    ) -> None:
        """Write back the wake-rule state a read-stream macro-step kept in
        locals."""
        self._last_tick = last_tick
        self._moved = moved
        self._mem_wake = mem_wake
        self._port_mark = port_mark

    def busy(self) -> bool:
        return self.adapter.busy() or self.memory.busy()

    def reset(self) -> None:
        self.adapter.reset()
        self.memory.reset()
        self._last_tick = -1
        self._moved = True
        self._mem_wake = IDLE
        self._port_mark = 0
