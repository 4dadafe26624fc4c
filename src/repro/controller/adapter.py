"""AXI-Pack adapter top level (paper Fig. 2b) and its banked channel stage.

The adapter owns the five burst converters.  Per cycle it:

1. retires at most one completed word access per memory port, freeing its
   slot in the issuing converter pipe;
2. runs the indirect converters' housekeeping (index extraction, beat
   planning);
3. routes at most one AR and one AW request to the converter of its mode;
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
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.axi.pack import PackMode
from repro.axi.port import AxiPort
from repro.controller.base_converter import BaseAxi4Converter
from repro.controller.indirect_read import IndirectReadConverter
from repro.controller.indirect_write import IndirectWriteConverter
from repro.controller.lanes import _ActiveWriteBurst
from repro.controller.strided_read import StridedReadConverter
from repro.controller.strided_write import StridedWriteConverter
from repro.errors import ProtocolError, SimulationError
from repro.mem.banked import BankedMemory
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.stats import StatsRegistry

ReadConverter = Union[BaseAxi4Converter, StridedReadConverter, IndirectReadConverter]
WriteConverter = Union[BaseAxi4Converter, StridedWriteConverter, IndirectWriteConverter]
Converter = Union[
    BaseAxi4Converter,
    StridedReadConverter,
    StridedWriteConverter,
    IndirectReadConverter,
    IndirectWriteConverter,
]


class AxiPackAdapter:
    """Translates AXI / AXI-Pack bursts into banked word accesses.

    Not an engine component of its own: :class:`BankedChannel` ticks it
    together with its memory.  The adapter and its converters take their
    geometry from the memory's config: one word lane per memory port, and
    an AXI port exactly that many words wide.

    Each converter names its lane pipes once: ``pipes`` holds all of them
    in issue order, ``reads`` is the pipe whose R beats a read converter
    emits and ``writes`` the one whose B responses a write converter emits.
    The adapter's scan tables and the stream macro-step read them there.
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

        self.base = base = BaseAxi4Converter(f"{name}.base", memory, self.stats)
        self.strided_read = strided_read = StridedReadConverter(
            f"{name}.strided_read", memory, self.stats
        )
        self.strided_write = strided_write = StridedWriteConverter(
            f"{name}.strided_write", memory, self.stats
        )
        self.indirect_read = indirect_read = IndirectReadConverter(
            f"{name}.indirect_read", memory, self.stats
        )
        self.indirect_write = indirect_write = IndirectWriteConverter(
            f"{name}.indirect_write", memory, self.stats
        )
        #: the converters in issue and R-emission round-robin order
        self.converters: List[Converter] = [
            base,
            strided_read,
            strided_write,
            indirect_read,
            indirect_write,
        ]
        #: the converter that serves a read or write burst of each mode
        self._readers: Dict[PackMode, ReadConverter] = {
            PackMode.NONE: base,
            PackMode.STRIDED: strided_read,
            PackMode.INDIRECT: indirect_read,
        }
        self._writers: Dict[PackMode, WriteConverter] = {
            PackMode.NONE: base,
            PackMode.STRIDED: strided_write,
            PackMode.INDIRECT: indirect_write,
        }
        # Scan tables read from the converters' pipes, so that the per-cycle
        # scans test deque truth values instead of calling a converter that
        # has nothing to do.
        #: unissued-slot deques of each converter's pipes, in converter order
        self._conv_unissued: List[Tuple] = [
            tuple(pipe._unissued for pipe in converter.pipes)
            for converter in self.converters
        ]
        # R and B emission: what pops a beat, then the containers it waits
        # on.  A base or strided converter pops through its pipe, an
        # indirect one through itself, as it retires its planned bursts.
        r_emitters = {
            base: (base.reads.pop_ready_r_beat, base.reads._beats),
            strided_read: (strided_read.reads.pop_ready_r_beat, strided_read.reads._beats),
            indirect_read: (indirect_read.pop_ready_r_beat, indirect_read.reads._beats),
        }
        #: R emission in converter order, None for a write converter
        self._conv_r_emitters: List[Optional[Tuple]] = [
            r_emitters.get(converter) for converter in self.converters
        ]
        #: B emission of the write converters, in converter order
        self._conv_b_emitters: List[Tuple] = [
            (pop, writes._bursts, writes._beats)
            for pop, writes in (
                (base.writes.pop_ready_b_beat, base.writes),
                (strided_write.writes.pop_ready_b_beat, strided_write.writes),
                (indirect_write.pop_ready_b_beat, indirect_write.writes),
            )
        ]
        #: (prebound step, index-stage burst deque) of the two converters
        #: with per-cycle housekeeping, the indirect ones
        self._stepping_info: List[Tuple] = [
            (indirect_read.step, indirect_read._index.bursts),
            (indirect_write.step, indirect_write._index.bursts),
        ]
        #: ``(converter, burst record)`` of every write burst still owed W
        #: beats, in AW-acceptance order; a lost burst's converter is
        #: ``None``, and its beats are discarded
        self._w_routing: Deque[
            Tuple[Optional[WriteConverter], _ActiveWriteBurst]
        ] = deque()
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

        Retiring drops the remaining count of the word's beat (the memory
        already filled, wrote or poisoned the beat at grant) and frees the
        word's slot in the issuing pipe's per-port ``in_flight`` count.
        """
        retired = 0
        for port, responses in enumerate(self._rsp_fifos):
            if responses:
                pipe, batch, slot = responses.popleft()
                batch.beat_remaining[batch.beat_of[slot]] -= 1
                in_flight = pipe.in_flight
                if in_flight[port] <= 0:
                    raise SimulationError(f"regulator underflow on port {port}")
                in_flight[port] -= 1
                retired += 1
        self._outstanding_words -= retired
        return retired

    # ---------------------------------------------------------------- demux
    def _demux_requests(self) -> None:
        """Route at most one AR and one AW to the converter of its mode.

        A burst the fault plan loses is dropped whole here: it issues no
        word and never sees an R beat or a B response.
        """
        ar = self._ar
        if ar._storage:
            request = ar._storage[0]
            if request.is_write:
                raise ProtocolError("write request arrived on the AR channel")
            if self._may_lose and self.memory.loses(request):
                ar.pop()
            else:
                reader = self._readers[request.mode]
                if reader.can_accept_read(request):
                    reader.accept_read(ar.pop())
                    self._open_read_bursts += 1
                    self._c_ar_accepted.value += 1
        aw = self._aw
        if aw._storage:
            request = aw._storage[0]
            if not request.is_write:
                raise ProtocolError("read request arrived on the AW channel")
            if self._may_lose and self.memory.loses(request):
                aw.pop()
                self._w_routing.append((None, _ActiveWriteBurst(request, None)))
            else:
                writer = self._writers[request.mode]
                if writer.can_accept_write(request):
                    burst = writer.accept_write(aw.pop())
                    self._w_routing.append((writer, burst))
                    self._open_write_bursts += 1
                    self._c_aw_accepted.value += 1

    def _route_w_data(self) -> None:
        """Hand the next W beat to the oldest burst still owed data."""
        if not self._w_routing or not self._w._storage:
            return
        converter, burst = self._w_routing[0]
        beat = burst.w_beats_received
        burst.w_beats_received = beat + 1
        if beat + 1 == burst.request.num_beats:
            self._w_routing.popleft()
        data = self._w.pop().data
        if converter is not None:
            converter.take_w_beat(burst, beat, data)
        self._c_w_beats.value += 1

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
            # A write converter never emits an R beat.
            if emitter is None or not emitter[1]:
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
        for pop_b, bursts, beats in self._conv_b_emitters:
            if not bursts and not beats:
                continue
            beat = pop_b()
            if beat is not None:
                b.push(beat)
                self._open_write_bursts -= 1
                self._c_b_beats.value += 1
                return

    # ---------------------------------------------------------------- streams
    def holds_no_indirect(self) -> bool:
        """True while no indirect burst is open in either direction.

        An indirect burst keeps its index-stage record, or its open write
        burst, from acceptance until its last R beat or its B response
        leaves, so then only the base and strided pipes, the W routing and
        B emission hold work: what a stream macro-step simulates.
        """
        return not self.indirect_read.busy() and not self.indirect_write.busy()

    def end_stream(
        self, last_tick: Optional[int], issue_rr: int, emit_rr: int,
        ports_free_after_issue: bool, outstanding_words: int,
        open_read_bursts: int, open_write_bursts: int,
    ) -> None:
        """Write back the scalars a stream macro-step kept in locals (the
        converters' pipes, the W routing and the counters were updated in
        place)."""
        self._last_tick = last_tick
        self._issue_rr = issue_rr
        self._emit_rr = emit_rr
        self._ports_free_after_issue = ports_free_after_issue
        self._outstanding_words = outstanding_words
        self._open_read_bursts = open_read_bursts
        self._open_write_bursts = open_write_bursts

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

    def stream_ready(self) -> bool:
        """True while a stream macro-step can advance this stage.

        The step (:mod:`repro.system.stream`) simulates the base and
        strided converters' pipes and no fault injection.
        """
        return self.adapter.holds_no_indirect() and self.memory.fault_free()

    def end_stream(
        self, last_tick: int, moved: bool, mem_wake: float, port_mark: int
    ) -> None:
        """Write back the wake-rule state a stream macro-step kept in
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
