"""Macro-stepping steady read streams across the vector engine and a channel.

On the BASE system every strided or indexed element is its own one-beat
narrow burst, and long stretches of a run are one steady read stream: each
cycle the vector engine pushes one narrow AR and pops one R beat while the
banked channel accepts, issues, grants, delivers, retires and emits one
word.  Full-width and packed strided read bursts make similar stretches in
which the engine only pops R beats.  :class:`ReadStreamStep` advances such
a stretch in one call: one loop over plain locals applies, cycle by cycle,
exactly the rules the two components' ticks apply, then writes every piece
of state back as the ticks would have left it.

A window from cycle *c* qualifies while

* the vector engine can only pop R beats of its active loads and push
  their remaining AR requests (:meth:`VectorEngine.read_stream_limit`: no
  store, W data, timer, stall end, dispatch or chained-compute retirement
  can fire before the limit it returns), and
* the channel holds work only in its base and strided read pipes
  (:meth:`BankedChannel.read_stream_ready`: no write, W, B, index-stage or
  fault activity).

The window ends before the first cycle that needs a real tick: one whose R
beat finishes its load or carries an error response, or one whose AR push
would start an indirect burst (the index stage is not simulated here).  The
loop keeps each component's wake exactly: a component runs on a cycle only
if the engine would have ticked it then, and cycles on which neither is
due are skipped as ``run_until`` skips them.  So every stats counter,
queue, FIFO, pipe, pointer, port stamp and wake ends as K ticks leave them.

``Soc`` wires the step for single-engine, single-channel banked systems
without a fault plan; the tick-every-cycle engine never steps, so every
event-vs-naive parity check also checks the step.
"""

from __future__ import annotations

from repro.axi.pack import PackMode
from repro.axi.signals import RBeat
from repro.axi.types import Resp
from repro.controller.adapter import BankedChannel
from repro.controller.base_converter import _MAX_PENDING_READ_BEATS
from repro.controller.lanes import SlotBatch
from repro.errors import SimulationError
from repro.sim.component import IDLE
from repro.sim.engine import Engine
from repro.vector.engine import VectorEngine

_RESP_OKAY = Resp.OKAY
_SLVERR = Resp.SLVERR
_STRIDED = PackMode.STRIDED


class _PortsOf(dict):
    """Bit mask -> tuple of the port numbers whose bits are set, filled in
    as masks occur, so a scan visits only the busy ports."""

    def __missing__(self, mask: int) -> tuple:
        ports = tuple(port for port in range(mask.bit_length()) if mask >> port & 1)
        self[mask] = ports
        return ports

#: Longest wait between attempts while the vector engine's stores last,
#: and while the channel's index stage works (packed gathers): each failed
#: attempt doubles the wait up to these many cycles.
_STORE_RETRY_GAP = 8
_INDEX_RETRY_GAP = 64


class ReadStreamStep:
    """The read-stream macro-step of one vector engine and one banked channel.

    The engine must be wired straight to the channel (no mux), and both must
    be registered with ``engine``.
    """

    def __init__(
        self, engine: Engine, vector: VectorEngine, channel: BankedChannel
    ) -> None:
        if vector.port is not channel.adapter.port:
            raise SimulationError(
                "a read-stream step needs the vector engine wired straight "
                "to the channel"
            )
        self.engine = engine
        self.vector = vector
        self.channel = channel
        #: cycle after the last one of the latest window that moved anything
        self.quiet_from = 0
        #: after a failed attempt, the first cycle worth another one
        self.retry_at = 0
        #: wait before the next attempt while a stretch of other work lasts
        self._retry_gap = 1
        self._ports_of = _PortsOf()

    def _later(self, cycle: int, longest: int) -> int:
        """Fail an attempt blocked by work that lasts a while: back off
        exponentially, up to ``longest`` cycles."""
        gap = self._retry_gap
        self.retry_at = cycle + gap
        if gap < longest:
            self._retry_gap = gap + gap
        return cycle

    def advance(self, cycle: int, stop: int) -> int:
        """Advance the window starting at ``cycle``; return where it ended.

        See :class:`~repro.sim.engine.MacroStep`.  The window never reaches
        ``stop``.
        """
        vector = self.vector
        # Cheapest and likeliest failures first.  A store keeps write work
        # in the channel until its B response is consumed, so the channel
        # check below fails only on index-stage work.
        if vector._active_stores or vector._w_backlog:
            return self._later(cycle, _STORE_RETRY_GAP)
        if not vector._active_loads:
            # An idle or computing engine ticks only on its timers.
            self.retry_at = cycle + 1
            return cycle
        channel = self.channel
        if not channel.read_stream_ready():
            return self._later(cycle, _INDEX_RETRY_GAP)
        ar = vector.port.ar
        ar_store = ar._storage
        for request in ar_store:
            if request.is_packed and request.mode is not _STRIDED:
                return self._later(cycle, _INDEX_RETRY_GAP)
        limit = vector.read_stream_limit(cycle)
        if limit <= cycle:
            # A timer, dispatch or compute that needs a tick now.
            self.retry_at = cycle + 1
            return cycle
        engine = self.engine
        port = vector.port
        if (
            engine._touched_queues
            or port.aw._count
            or port.w._count
            or port.b._count
        ):
            self.retry_at = cycle + 1
            return cycle
        self._retry_gap = 1
        if limit < stop:
            stop = int(limit)

        # ---- the engine's view: wakes and activity
        wakes = engine._wakes
        v_slot = vector._engine_slot
        ch_slot = channel._engine_slot
        v_wake = wakes[v_slot]
        ch_wake = wakes[ch_slot]
        act = 0  #: activity the window adds to the engine's counter
        quiet = cycle

        # ---- vector engine (its tick's hint is ``limit`` all window long)
        v_hint = limit
        v_last = -1
        loads = vector._active_loads
        by_txn = vector._by_txn
        r_beats = r_data = r_index = 0
        unissued = vector._unissued_requests
        pusher = None  #: oldest load with AR requests left to push
        for state in loads:
            if state.next_request < len(state.requests):
                pusher = state
                break

        # ---- AXI port queues
        ar_depth = ar.depth
        r = port.r
        r_store = r._storage
        # Inside the window an R beat is a (txn_id, data, useful_bytes,
        # last, resp) tuple; the beats left at the end become RBeats again.
        beats_in = [(beat.txn_id, beat.data, beat.useful_bytes, beat.last,
                     beat.resp) for beat in r_store]
        r_store.clear()
        r_store.extend(beats_in)
        r_depth = r.depth
        # The queues' push/pop totals follow from the counters below; a
        # cycle's AR push and R beat wait in locals until its commit, so
        # ``_incoming`` stays empty and each queue's count is its length.
        unissued_start = unissued

        # ---- channel stage wake rule
        ch_last = channel._last_tick
        ch_moved = channel._moved
        mem_wake = channel._mem_wake
        port_mark = channel._port_mark
        port_start = channel._port_activity()

        # ---- adapter
        adapter = channel.adapter
        a_last = adapter._last_tick
        issue_rr = adapter._issue_rr
        emit_rr = adapter._emit_rr
        free_after = adapter._ports_free_after_issue
        outstanding = adapter._outstanding_words
        open_reads = adapter._open_read_bursts
        n_conv = len(adapter.converters)
        c_word_requests = adapter._c_word_requests
        c_r_beats = adapter._c_r_beats
        c_r_useful = adapter._c_r_useful
        c_ar_accepted = adapter._c_ar_accepted
        accepted_start = c_ar_accepted.value
        emitted_start = c_r_beats.value
        base = adapter.base
        c_base_bursts = base._c_read_bursts
        strided = adapter.strided_read
        b_pipe = base._reads
        b_beats = b_pipe._beats
        b_unissued = b_pipe._unissued
        s_pipe = strided._pipe
        s_beats = s_pipe._beats
        s_unissued = s_pipe._unissued
        #: pipes in issue / emit order for each round-robin pointer: the
        #: strided read converter (slot 1) goes first only from pointer 1
        base_first = (b_pipe, s_pipe)
        strided_first = (s_pipe, b_pipe)
        base_only = (b_pipe,)
        strided_only = (s_pipe,)

        # ---- banked memory
        memory = channel.memory
        config = memory.config
        num_ports = config.num_ports
        num_banks = config.num_banks
        word_bytes = config.word_bytes
        latency = config.latency
        conflict_free = config.conflict_free
        depth = config.queue_depth  #: FIFO depth and per-port in-flight cap
        all_ports = (1 << num_ports) - 1
        req_fifos = memory.req_fifos
        pushed_at = memory.req_pushed_at
        req_full = memory.req_full
        rsp_fifos = memory.rsp_fifos
        in_flights = memory._in_flight
        flight_count = memory._flight_count
        last_grant = memory._bank_last_grant
        num_words = memory._num_words
        view = memory._mem_view
        c_accesses = memory._c_accesses
        c_reads = memory._c_reads
        arbitrate = memory._arbitrate
        single_word = SlotBatch.single_word
        # Masks of the ports whose request FIFO, in-flight deque and
        # response FIFO are non-empty.  Ports are independent in every scan
        # below (retire, deliver, grant), so visiting only these, in any
        # order, changes nothing.
        ports_of = self._ports_of
        req_mask = flight_mask = rsp_mask = 0
        for index in range(num_ports):
            bit = 1 << index
            if req_fifos[index]:
                req_mask |= bit
            if in_flights[index]:
                flight_mask |= bit
            if rsp_fifos[index]:
                rsp_mask |= bit

        # Stats counters the loop adds to in locals (written back below).
        narrow_bursts = issued_words = emitted_bytes = granted_words = 0
        #: the port queues' push/pop total is ``port_base`` plus the R beats
        #: popped, AR requests pushed, ARs accepted and R beats emitted
        port_base = port_start + unissued_start - accepted_start - emitted_start

        t = cycle
        while t < stop:
            v_due = v_wake <= t
            if not v_due and ch_wake > t:
                # Neither component is due: skip to the earlier wake, as
                # run_until's idle skipping would.
                t = v_wake if v_wake < ch_wake else ch_wake
                if t >= stop:
                    t = stop
                    break
                continue
            touched = False  #: a port queue was pushed or popped
            moved = 0  #: words the channel moved
            push = None  #: the AR request the vector engine pushes
            emitted = None  #: the R beat the adapter emits
            #: ports whose request FIFO holds only this cycle's push, which
            #: the grant cannot see yet (registered FIFO output)
            lone = 0
            # ------------------------------------------------ vector engine
            if v_due:
                beat = None
                if r_store:
                    beat = r_store[0]
                    txn_id, data, useful, _last, resp = beat
                    state = by_txn[txn_id]
                    if (
                        state.beats_done + 1 >= state.total_beats
                        or resp is not _RESP_OKAY
                    ):
                        break  # a finishing load or an error: a real tick
                if unissued and t >= pusher.ready_cycle and len(ar_store) < ar_depth:
                    push = pusher.requests[pusher.next_request]
                    if push.is_packed and push.mode is not _STRIDED:
                        break  # an indirect burst: a real tick
                v_last = t
                if beat is not None:
                    # VectorEngine._consume_r
                    r_store.popleft()
                    touched = True
                    r_beats += 1
                    if state.is_index:
                        r_index += useful
                    else:
                        r_data += useful
                    # (A read beat's buffer is ``useful`` bytes long, so
                    # it is kept whole.)
                    state.chunks[txn_id].append(data)
                    state.beats_done += 1
                if push is not None:
                    # VectorEngine._push_requests
                    touched = True
                    next_request = pusher.next_request + 1
                    pusher.next_request = next_request
                    unissued -= 1
                    if unissued and next_request >= len(pusher.requests):
                        for state in loads:
                            if state.next_request < len(state.requests):
                                pusher = state
                                break
                v_wake = v_hint
            # ------------------------------------------------ channel stage
            if ch_wake <= t:
                previous = ch_last
                ch_last = t
                if (
                    ch_moved
                    or t < mem_wake
                    or t == previous + 1
                    or port_base + r_beats - unissued + c_ar_accepted.value
                    + c_r_beats.value != port_mark
                ):
                    # ---------------------------------- AxiPackAdapter.tick
                    if a_last is not None and t - a_last > 1 and free_after:
                        issue_rr = (issue_rr + t - a_last - 1) % n_conv
                    a_last = t
                    if rsp_mask:
                        # _retire_words: one response per port.  Every tag
                        # here was counted in its pipe's in_flight at issue,
                        # so the count cannot underflow.
                        retiring = ports_of[rsp_mask]
                        for index in retiring:
                            responses = rsp_fifos[index]
                            pipe, batch, slot = responses.popleft()
                            if not responses:
                                rsp_mask ^= 1 << index
                            batch.beat_pending[batch.beat_of[slot]] -= 1
                            pipe.in_flight[index] -= 1
                        retired = len(retiring)
                        outstanding -= retired
                        moved += retired
                    if ar_store:
                        # _demux_requests (reads only)
                        request = ar_store[0]
                        if request.is_packed:
                            accepted = strided.can_accept_read(request)
                            if accepted:
                                ar_store.popleft()
                                strided.accept_read(request)
                        elif len(b_beats) + request.num_beats <= _MAX_PENDING_READ_BEATS:
                            accepted = True
                            ar_store.popleft()
                            addr = request.addr
                            if (
                                request.num_beats == 1
                                and not request.contiguous
                                and request.elem_bytes == word_bytes
                                and addr % word_bytes == 0
                            ):
                                # BaseAxi4Converter.accept_read of a one-word
                                # narrow burst (batch_narrow, add_batch)
                                first = addr // word_bytes
                                batch = single_word(
                                    first % num_ports, first, word_bytes
                                )
                                buffer = bytearray(word_bytes)
                                batch.beat_data = [buffer]
                                batch.beat_views = [memoryview(buffer)]
                                batch.beat_pending = batch.beat_remaining
                                b_beats.append((batch, 0, request))
                                b_unissued.append([batch, 0])
                                narrow_bursts += 1
                            else:
                                base.accept_read(request)
                        else:
                            accepted = False
                        if accepted:
                            touched = True
                            open_reads += 1
                            c_ar_accepted.value += 1
                    # _issue_words
                    if b_unissued or s_unissued:
                        offered = all_ports ^ req_full
                        if offered:
                            free = offered
                            if not s_unissued:
                                pipes = base_only
                            elif not b_unissued:
                                pipes = strided_only
                            else:
                                pipes = strided_first if issue_rr == 1 else base_first
                            for pipe in pipes:
                                unissued_batches = pipe._unissued
                                pipe_in_flight = pipe.in_flight
                                # LaneReadPipe.issue
                                while unissued_batches:
                                    entry = unissued_batches[0]
                                    batch = entry[0]
                                    ports = batch.ports
                                    slot = entry[1]
                                    end = batch.num_slots
                                    while slot < end:
                                        index = ports[slot]
                                        bit = 1 << index
                                        if not free & bit or pipe_in_flight[index] >= depth:
                                            entry[1] = slot
                                            break
                                        free ^= bit
                                        pipe_in_flight[index] += 1
                                        # Each port takes at most one word per
                                        # cycle, so its stamp and full bit can
                                        # be set as it is pushed.
                                        requests = req_fifos[index]
                                        requests.append((pipe, batch, slot))
                                        pushed_at[index] = t
                                        queued = len(requests)
                                        if queued == 1:
                                            lone |= bit
                                        if queued >= depth:
                                            req_full |= bit
                                        slot += 1
                                    else:
                                        unissued_batches.popleft()
                                        continue
                                    break
                                if not free:
                                    break
                            issue_rr = (issue_rr + 1) % n_conv
                            used = offered ^ free
                            if used:
                                issued = len(ports_of[used])
                                req_mask |= used
                                free_after = req_full != all_ports
                                outstanding += issued
                                issued_words += issued
                                moved += issued
                            else:
                                free_after = True
                        else:
                            free_after = False
                    elif req_full != all_ports:
                        issue_rr = (issue_rr + 1) % n_conv
                        free_after = True
                    else:
                        free_after = False
                    if open_reads and len(r_store) < r_depth:
                        # _emit_r_beat and LaneReadPipe.pop_ready_r_beat
                        if not s_beats:
                            pipes = base_only
                        elif not b_beats:
                            pipes = strided_only
                        else:
                            pipes = strided_first if emit_rr == 1 else base_first
                        for pipe in pipes:
                            beats = pipe._beats
                            if not beats:
                                continue
                            batch, k, request = beats[0]
                            if batch.beat_remaining[k]:
                                continue
                            # (Its words all retired, so all were issued.)
                            beats.popleft()
                            resps = batch.beat_resp
                            useful = batch.beat_useful[k]
                            last_beat = batch.beat_last[k]
                            emitted = (
                                request.txn_id, batch.beat_data[k], useful,
                                last_beat,
                                _RESP_OKAY if resps is None else resps[k],
                            )
                            touched = True
                            c_r_beats.value += 1
                            emitted_bytes += useful
                            emit_rr = (emit_rr + 1) % n_conv
                            if last_beat:
                                open_reads -= 1
                            break
                # -------------------------------------- BankedMemory.tick
                memory_due = ch_moved or t >= mem_wake
                if memory_due:
                    if flight_mask:
                        # _deliver: matured accesses, as far as there is room
                        delivered = 0
                        for index in ports_of[flight_mask]:
                            flight = in_flights[index]
                            if flight[0][0] > t:
                                continue
                            responses = rsp_fifos[index]
                            if len(responses) >= depth:
                                continue
                            responses.append(flight.popleft()[1])
                            delivered += 1
                            rsp_mask |= 1 << index
                            if not flight:
                                flight_mask ^= 1 << index
                                continue
                            while (
                                flight
                                and flight[0][0] <= t
                                and len(responses) < depth
                            ):
                                responses.append(flight.popleft()[1])
                                delivered += 1
                            if not flight:
                                flight_mask ^= 1 << index
                        flight_count -= delivered
                        moved += delivered
                    # _grant (reads, no fault plan).  A window holds only
                    # the two read pipes' words, at most 2 x depth in flight
                    # per port, so the memory's 4 x depth in-flight limit
                    # never holds a port back.
                    claim = req_mask & ~lone
                    if claim:
                        granted = ports_of[claim]
                        #: every claimant wins (one claimant, or no two on
                        #: a bank); its bank's pointer is set as it is granted
                        track = not conflict_free
                        if track and len(granted) > 1:
                            banks = []
                            for index in granted:
                                _pipe, batch, slot = req_fifos[index][0]
                                banks.append(batch.words[slot] % num_banks)
                            if len(set(banks)) != len(banks):
                                # Per-bank round-robin; sets the pointers.
                                granted = arbitrate(granted, banks)
                                track = False
                                claim = 0
                                for index in granted:
                                    claim |= 1 << index
                        ready = t + latency
                        for index in granted:
                            requests = req_fifos[index]
                            tag = requests.popleft()
                            if not requests:
                                req_mask ^= 1 << index
                            _pipe, batch, slot = tag
                            word = batch.words[slot]
                            if track:
                                last_grant[word % num_banks] = index
                            beat_index = batch.beat_of[slot]
                            if 0 <= word < num_words:
                                offset = batch.offsets[slot]
                                if batch.all_full_words:
                                    byte_addr = word * word_bytes
                                    batch.beat_views[beat_index][
                                        offset : offset + word_bytes
                                    ] = view[byte_addr : byte_addr + word_bytes]
                                else:
                                    nbytes = batch.nbytes[slot]
                                    byte_addr = word * word_bytes + batch.shifts[slot]
                                    batch.beat_views[beat_index][
                                        offset : offset + nbytes
                                    ] = view[byte_addr : byte_addr + nbytes]
                            else:
                                batch.poison_beat(beat_index, _SLVERR)
                            in_flights[index].append((ready, tag))
                        flight_mask |= claim
                        req_full &= ~claim
                        count = len(granted)
                        flight_count += count
                        granted_words += count
                        moved += count
                # -------------------------------- BankedChannel.tick's hint
                if moved:
                    ch_moved = True
                    ch_wake = t + 1
                else:
                    ch_moved = False
                    if memory_due:
                        # BankedMemory.next_ready
                        mem_wake = IDLE
                        for index in ports_of[flight_mask]:
                            ready = in_flights[index][0][0]
                            if t < ready < mem_wake:
                                mem_wake = ready
                    if mem_wake != IDLE:
                        port_mark = (
                            port_base + r_beats - unissued + c_ar_accepted.value + c_r_beats.value
                        )
                    ch_wake = mem_wake
            # ------------------------------------ commit, wake, activity
            if push is not None:
                ar_store.append(push)
            if emitted is not None:
                r_store.append(emitted)
            t += 1
            if touched:
                if v_wake > t:
                    v_wake = t
                if ch_wake > t:
                    ch_wake = t
                quiet = t
            elif moved:
                quiet = t
            act += moved
        beats_out = [RBeat(*beat) for beat in r_store]
        r_store.clear()
        r_store.extend(beats_out)
        if t == cycle:
            # The first cycle already needs a real tick.
            self.retry_at = cycle + 1
            return cycle

        # ---- write back
        c_base_bursts.value += narrow_bursts
        c_word_requests.value += issued_words
        c_r_useful.value += emitted_bytes
        c_accesses.value += granted_words
        c_reads.value += granted_words
        ar.end_stream(
            len(ar_store),
            ar.total_pushed + unissued_start - unissued,
            ar.total_popped + c_ar_accepted.value - accepted_start,
        )
        r.end_stream(
            len(r_store),
            r.total_pushed + c_r_beats.value - emitted_start,
            r.total_popped + r_beats,
        )
        # Every port push and pop counts as activity, as a queue counts it.
        engine._activity += (
            act + port_base + r_beats - unissued + c_ar_accepted.value
            + c_r_beats.value - port_start
        )
        wakes[v_slot] = v_wake
        wakes[ch_slot] = ch_wake
        vector.end_read_stream(v_last, unissued, r_beats, r_data, r_index)
        adapter.end_read_stream(
            a_last, issue_rr, emit_rr, free_after, outstanding, open_reads
        )
        memory.end_read_stream(req_full, flight_count)
        channel.end_read_stream(ch_last, ch_moved, mem_wake, port_mark)
        self.quiet_from = quiet
        return t
