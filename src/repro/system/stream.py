"""Macro-stepping steady streams across the vector engine and a channel.

On the BASE system every strided or indexed element is its own one-beat
narrow burst, and long stretches of a run are one steady stream: each
cycle the vector engine pushes one narrow AR and pops one R beat, or
pushes one narrow AW and its W beat and pops one B response, while the
banked channel accepts, issues, grants, delivers, retires and emits one
word.  Full-width and packed strided bursts make similar stretches in
which the engine only pops R beats or pushes W beats.  :class:`StreamStep`
advances such a stretch, reads, writes or both, in one call: one loop over
plain locals applies, cycle by cycle, exactly the rules the two
components' ticks apply, then writes every piece of state back as the
ticks would have left it.

A window from cycle *c* qualifies while

* the vector engine can only pop R and B beats of its active loads and
  stores and push their remaining AR and AW requests and W data
  (:meth:`VectorEngine.stream_limit`: no timer, stall end, dispatch or
  chained-compute retirement can fire before the limit it returns), and
* the channel holds no indirect burst in either direction and no fault
  plan (:meth:`BankedChannel.stream_ready`), so its work sits in the base
  converter's read and write pipes and the strided read and write pipes.

The window ends before the first cycle that needs a real tick: one whose R
beat finishes its load, whose B response completes its store, whose beat
carries an error response, or whose AR or AW push would start an indirect
burst (the index stage is not simulated here).  The loop keeps each
component's wake exactly: a component runs on a cycle only if the engine
would have ticked it then, and cycles on which neither is due are skipped
as ``run_until`` skips them.  So every stats counter, queue, FIFO, pipe,
pointer, port stamp and wake ends as K ticks leave them.

``Soc`` wires the step for single-engine, single-channel banked systems
without a fault plan; the tick-every-cycle engine never steps, so every
event-vs-naive parity check also checks the step.
"""

from __future__ import annotations

from repro.axi.pack import PackMode
from repro.axi.signals import BBeat, RBeat, new_beat
from repro.axi.types import Resp
from repro.controller.adapter import BankedChannel
from repro.controller.base_converter import _MAX_PENDING_READ_BEATS
from repro.controller.lanes import MAX_OPEN_BURSTS, SlotBatch, _ActiveWriteBurst
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


#: Longest wait between attempts while the channel's index stage works
#: (packed gathers and scatters): each failed attempt doubles the wait up
#: to this many cycles.
_INDEX_RETRY_GAP = 64


class StreamStep:
    """The stream macro-step of one vector engine and one banked channel.

    The engine must be wired straight to the channel (no mux), and both must
    be registered with ``engine``.
    """

    def __init__(
        self, engine: Engine, vector: VectorEngine, channel: BankedChannel
    ) -> None:
        if vector.port is not channel.adapter.port:
            raise SimulationError(
                "a stream step needs the vector engine wired straight to the "
                "channel"
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
        adapter = channel.adapter
        converters = adapter.converters
        indirect = (adapter.indirect_read, adapter.indirect_write)
        #: pipes in issue order for each issue round-robin pointer: the
        #: adapter calls the converters from the pointer on, and each issues
        #: its pipes in order (the indirect converters hold nothing inside a
        #: window)
        self._issue_orders = tuple(
            tuple(
                pipe
                for converter in converters[rr:] + converters[:rr]
                if converter not in indirect
                for pipe in converter.pipes
            )
            for rr in range(len(converters))
        )
        memory = channel.memory
        #: (bit, request FIFO, in-flight deque, response FIFO) per memory
        #: port; reset clears the deques in place
        self._port_deques = tuple(
            (1 << index, *deques)
            for index, deques in enumerate(
                zip(memory.req_fifos, memory._in_flight, memory.rsp_fifos)
            )
        )

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
        loads = vector._active_loads
        stores = vector._active_stores
        # Cheapest and likeliest failures first.
        if not loads and not stores:
            # An idle or computing engine ticks only on its timers.
            self.retry_at = cycle + 1
            return cycle
        limit = vector.stream_limit(cycle)
        if limit <= cycle:
            # A timer, dispatch or compute that needs a tick now.
            self.retry_at = cycle + 1
            return cycle
        channel = self.channel
        if not channel.stream_ready():
            return self._later(cycle, _INDEX_RETRY_GAP)
        port = vector.port
        ar = port.ar
        aw = port.aw
        ar_store = ar._storage
        aw_store = aw._storage
        # An indirect burst on its way to the channel keeps the index stage
        # busy once accepted.
        for request in ar_store:
            if request.is_packed and request.mode is not _STRIDED:
                return self._later(cycle, _INDEX_RETRY_GAP)
        #: the oldest load and store with requests left to push
        ar_pusher = aw_pusher = None
        for state in loads:
            if state.next_request < len(state.requests):
                ar_pusher = state
                break
        if stores:
            for state in stores:
                if state.next_request < len(state.requests):
                    aw_pusher = state
                    break
            upcoming = list(aw_store)
            if aw_pusher is not None:
                upcoming.append(aw_pusher.requests[aw_pusher.next_request])
            for request in upcoming:
                if request.is_packed and request.mode is not _STRIDED:
                    return self._later(cycle, _INDEX_RETRY_GAP)
        engine = self.engine
        adapter = channel.adapter
        if engine._touched_queues or adapter._last_tick is None:
            # Pushed from outside the engine, or the adapter never ticked.
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
        act = 0  #: words the window moves through the memory's FIFOs
        quiet = cycle

        # ---- vector engine (its tick's hint is ``limit`` all window long)
        v_hint = limit
        v_last = -1
        by_txn = vector._by_txn
        backlog = vector._w_backlog
        bus_bytes = vector._bus_bytes
        r_data = r_index = w_useful = 0

        # ---- AXI port queues.  Beats are read by position: an RBeat is
        # (txn_id, data, useful_bytes, last, resp), a WBeat (data,
        # useful_bytes, last) and a BBeat (txn_id, resp).  A cycle's pushes
        # wait in locals until its commit, so ``_incoming`` stays empty and
        # each queue's count is its length.
        ar_depth = ar.depth
        aw_depth = aw.depth
        w = port.w
        w_store = w._storage
        w_depth = w.depth
        r = port.r
        r_store = r._storage
        r_depth = r.depth
        b = port.b
        b_store = b._storage
        b_depth = b.depth
        #: what the vector engine pushes and the adapter emits this cycle,
        #: held until the cycle's commit (which resets them)
        push = aw_push = w_push = emitted = b_emit = None
        # Pushes and pops per port queue: AR, AW and W pushed, R and B
        # popped by the vector engine, the reverse by the adapter.
        ar_pushed = aw_pushed = w_pushed = r_popped = b_popped = 0
        ar_popped = aw_popped = w_popped = r_pushed = b_pushed = 0

        # ---- channel stage wake rule: its port activity is ``port_start``
        # plus the ten counts above
        ch_last = channel._last_tick
        ch_moved = channel._moved
        mem_wake = channel._mem_wake
        port_mark = channel._port_mark
        port_start = channel._port_activity()

        # ---- adapter
        a_last = adapter._last_tick
        issue_rr = adapter._issue_rr
        emit_rr = adapter._emit_rr
        free_after = adapter._ports_free_after_issue
        outstanding = adapter._outstanding_words
        open_reads = adapter._open_read_bursts
        open_writes = adapter._open_write_bursts
        w_routing = adapter._w_routing
        n_conv = len(adapter.converters)
        base = adapter.base
        strided = adapter.strided_read
        strided_write = adapter.strided_write
        b_pipe = base.reads
        b_beats = b_pipe._beats
        b_unissued = b_pipe._unissued
        s_pipe = strided.reads
        s_beats = s_pipe._beats
        s_unissued = s_pipe._unissued
        bw_pipe = base.writes
        bw_bursts = bw_pipe._bursts
        bw_unissued = bw_pipe._unissued
        sw_pipe = strided_write.writes
        sw_bursts = sw_pipe._bursts
        sw_unissued = sw_pipe._unissued
        #: write pipes in B-emission order (the adapter's converter order)
        write_pipes = (bw_pipe, sw_pipe)
        #: every AW, W beat, write burst and B response belongs to an
        #: active store, which stays active until its last B response is
        #: consumed (no watchdog can abandon it: see ``stream_limit``), so
        #: without one the window has no write work
        writing = bool(stores)
        issue_orders = self._issue_orders
        #: read pipes in issue and emit order: the strided read converter
        #: (slot 1) goes first only from pointer 1
        base_first = (b_pipe, s_pipe)
        strided_first = (s_pipe, b_pipe)
        base_only = (b_pipe,)
        strided_only = (s_pipe,)
        base_writes = (bw_pipe,)
        strided_writes = (sw_pipe,)

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
        arbitrate = memory._arbitrate
        single_word = SlotBatch.single_word
        # Masks of the ports whose request FIFO, in-flight deque and
        # response FIFO are non-empty.  Ports are independent in every scan
        # below (retire, deliver, grant), so visiting only these, in any
        # order, changes nothing.
        ports_of = self._ports_of
        req_mask = flight_mask = rsp_mask = 0
        for bit, requests, flight, responses in self._port_deques:
            if requests:
                req_mask |= bit
            if flight:
                flight_mask |= bit
            if responses:
                rsp_mask |= bit

        # Stats counters the loop adds to in locals (written back below).
        narrow_reads = narrow_writes = issued_words = emitted_bytes = 0
        granted_words = granted_writes = 0

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
            #: ports whose request FIFO holds only this cycle's push, which
            #: the grant cannot see yet (registered FIFO output)
            lone = 0
            # ------------------------------------------------ vector engine
            if v_due:
                # Every check that ends the window comes before any change.
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
                if (
                    ar_pusher is not None
                    and t >= ar_pusher.ready_cycle
                    and len(ar_store) < ar_depth
                ):
                    push = ar_pusher.requests[ar_pusher.next_request]
                    if push.is_packed and push.mode is not _STRIDED:
                        break  # an indirect burst: a real tick
                if writing:
                    response = None
                    if b_store:
                        response = b_store[0]
                        owner = by_txn[response[0]]
                        if (
                            owner.responses_pending <= 1
                            or response[1] is not _RESP_OKAY
                        ):
                            break  # a completing store or an error: a real tick
                    if (
                        aw_pusher is not None
                        and t >= aw_pusher.ready_cycle
                        and len(aw_store) < aw_depth
                    ):
                        aw_push = aw_pusher.requests[aw_pusher.next_request]
                        if aw_push.is_packed and aw_push.mode is not _STRIDED:
                            break  # an indirect burst: a real tick
                    # The stores' state is disjoint from the loads', so
                    # their changes may come before the loads' (which keep
                    # ``beat``, ``state``, ``txn_id``, ``data`` and
                    # ``useful`` from the checks above).
                    if response is not None:
                        # VectorEngine._consume_b of a B that leaves its
                        # store active
                        b_store.popleft()
                        touched = True
                        b_popped += 1
                        owner.responses_pending -= 1
                    if aw_push is not None:
                        # VectorEngine._push_requests, stores
                        touched = True
                        aw_pushed += 1
                        next_request = aw_pusher.next_request + 1
                        aw_pusher.next_request = next_request
                        if next_request >= len(aw_pusher.requests):
                            aw_pusher = None
                            for store in stores:
                                if store.next_request < len(store.requests):
                                    aw_pusher = store
                                    break
                    if backlog and len(w_store) < w_depth:
                        # VectorEngine._push_w_data, once the burst's AW
                        # was pushed
                        owner, position, w_beat = backlog[0]
                        if position < owner.next_request:
                            nbytes = w_beat[1]
                            if not 0 <= nbytes <= bus_bytes:
                                raise SimulationError(
                                    f"{vector.name}: W beat of {nbytes} useful "
                                    f"bytes on a {bus_bytes}-byte bus"
                                )
                            w_push = w_beat
                            backlog.popleft()
                            touched = True
                            w_pushed += 1
                            w_useful += nbytes
                v_last = t
                if beat is not None:
                    # VectorEngine._consume_r
                    r_store.popleft()
                    touched = True
                    r_popped += 1
                    if state.is_index:
                        r_index += useful
                    else:
                        r_data += useful
                    # (A read beat's buffer is ``useful`` bytes long, so
                    # it is kept whole.)
                    state.chunks[txn_id].append(data)
                    state.beats_done += 1
                if push is not None:
                    # VectorEngine._push_requests, loads
                    touched = True
                    ar_pushed += 1
                    next_request = ar_pusher.next_request + 1
                    ar_pusher.next_request = next_request
                    if next_request >= len(ar_pusher.requests):
                        ar_pusher = None
                        for state in loads:
                            if state.next_request < len(state.requests):
                                ar_pusher = state
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
                    or port_start + ar_pushed + aw_pushed + w_pushed + r_popped
                    + b_popped + ar_popped + aw_popped + w_popped + r_pushed
                    + b_pushed != port_mark
                ):
                    # ---------------------------------- AxiPackAdapter.tick
                    if t - a_last > 1 and free_after:
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
                            batch.beat_remaining[batch.beat_of[slot]] -= 1
                            pipe.in_flight[index] -= 1
                        retired = len(retiring)
                        outstanding -= retired
                        moved += retired
                    if ar_store:
                        # _demux_requests, reads
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
                                b_beats.append((batch, 0, request))
                                b_unissued.append([batch, 0, 1])
                                narrow_reads += 1
                            else:
                                base.accept_read(request)
                        else:
                            accepted = False
                        if accepted:
                            touched = True
                            open_reads += 1
                            ar_popped += 1
                    if writing:
                        if aw_store:
                            # _demux_requests, writes
                            request = aw_store[0]
                            if request.is_packed:
                                accepted = len(sw_bursts) < MAX_OPEN_BURSTS
                                if accepted:
                                    aw_store.popleft()
                                    w_routing.append((
                                        strided_write,
                                        strided_write.accept_write(request),
                                    ))
                            elif len(bw_bursts) < MAX_OPEN_BURSTS:
                                accepted = True
                                aw_store.popleft()
                                addr = request.addr
                                if (
                                    request.num_beats == 1
                                    and not request.contiguous
                                    and request.elem_bytes == word_bytes
                                    and addr % word_bytes == 0
                                ):
                                    # BaseAxi4Converter.accept_write of a
                                    # one-word narrow burst (batch_narrow,
                                    # LaneWritePipe.accept)
                                    first = addr // word_bytes
                                    batch = single_word(
                                        first % num_ports, first, word_bytes
                                    )
                                    batch.beat_payload = [None]
                                    burst = _ActiveWriteBurst(request, batch)
                                    bw_bursts.append(burst)
                                    w_routing.append((base, burst))
                                    narrow_writes += 1
                                else:
                                    w_routing.append(
                                        (base, base.accept_write(request))
                                    )
                            else:
                                accepted = False
                            if accepted:
                                touched = True
                                open_writes += 1
                                aw_popped += 1
                        if w_routing and w_store:
                            # _route_w_data and LaneWritePipe.arm_beat (no
                            # burst is lost without a fault plan)
                            converter, burst = w_routing[0]
                            k = burst.w_beats_received
                            burst.w_beats_received = k + 1
                            if k + 1 == burst.request.num_beats:
                                w_routing.popleft()
                            batch = burst.batch
                            batch.beat_payload[k] = w_store.popleft()[0]
                            pipe = converter.writes
                            pipe._beats.append((batch, k, burst))
                            start = batch.beat_start[k]
                            end = batch.beat_start[k + 1]
                            if end > start:
                                pipe._unissued.append([batch, start, end])
                            touched = True
                            w_popped += 1
                    # _issue_words
                    if b_unissued or s_unissued or bw_unissued or sw_unissued:
                        offered = all_ports ^ req_full
                        if offered:
                            free = offered
                            if not writing:
                                if not s_unissued:
                                    pipes = base_only
                                elif not b_unissued:
                                    pipes = strided_only
                                else:
                                    pipes = (
                                        strided_first if issue_rr == 1 else base_first
                                    )
                            elif b_unissued or s_unissued or bw_unissued and sw_unissued:
                                pipes = issue_orders[issue_rr]
                            elif bw_unissued:
                                pipes = base_writes
                            else:
                                pipes = strided_writes
                            for pipe in pipes:
                                pending = pipe._unissued
                                if not pending:
                                    continue
                                pipe_in_flight = pipe.in_flight
                                # _LanePipe.issue
                                while pending:
                                    entry = pending[0]
                                    batch = entry[0]
                                    ports = batch.ports
                                    slot = entry[1]
                                    end = entry[2]
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
                                        pending.popleft()
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
                            emitted = new_beat(RBeat, (
                                request.txn_id, batch.beat_data[k], useful,
                                last_beat,
                                _RESP_OKAY if resps is None else resps[k],
                            ))
                            touched = True
                            r_pushed += 1
                            emitted_bytes += useful
                            emit_rr = (emit_rr + 1) % n_conv
                            if last_beat:
                                open_reads -= 1
                            break
                    if open_writes and len(b_store) < b_depth:
                        # _emit_b_beat and LaneWritePipe.pop_ready_b_beat,
                        # which retires completed beats even when it finds
                        # no burst to answer
                        for pipe in write_pipes:
                            bursts = pipe._bursts
                            beats = pipe._beats
                            if not bursts and not beats:
                                continue
                            while beats:
                                batch, k, burst = beats[0]
                                if batch.beat_remaining[k]:
                                    break
                                beats.popleft()
                                burst.beats_completed += 1
                                resps = batch.beat_resp
                                if resps is not None and resps[k].value > burst.resp.value:
                                    burst.resp = resps[k]
                            if bursts:
                                # (A beat completes only after its W beat
                                # armed it, so a burst whose beats all
                                # completed received all its W data.)
                                burst = bursts[0]
                                request = burst.request
                                if burst.beats_completed >= request.num_beats:
                                    bursts.popleft()
                                    b_emit = new_beat(BBeat, (request.txn_id, burst.resp))
                                    touched = True
                                    b_pushed += 1
                                    open_writes -= 1
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
                    # _grant (no fault plan).  A port's words in flight
                    # number at most 4 x depth (one depth per base and
                    # strided pipe) while one of them still waits in its
                    # request FIFO, so the memory's 4 x depth in-flight
                    # limit never holds a request back.
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
                            if not 0 <= word < num_words:
                                if batch.beat_payload is not None:
                                    granted_writes += 1
                                batch.poison_beat(beat_index, _SLVERR)
                            elif batch.beat_payload is None:
                                # a read: the word lands in its beat
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
                                # a write: the word comes from its beat
                                offset = batch.offsets[slot]
                                byte_addr = word * word_bytes
                                view[byte_addr : byte_addr + word_bytes] = (
                                    batch.beat_payload[beat_index][
                                        offset : offset + word_bytes
                                    ]
                                )
                                granted_writes += 1
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
                            port_start + ar_pushed + aw_pushed + w_pushed
                            + r_popped + b_popped + ar_popped + aw_popped
                            + w_popped + r_pushed + b_pushed
                        )
                    ch_wake = mem_wake
            # ------------------------------------ commit, wake, activity
            if push is not None:
                ar_store.append(push)
                push = None
            if emitted is not None:
                r_store.append(emitted)
                emitted = None
            if writing:
                if aw_push is not None:
                    aw_store.append(aw_push)
                    aw_push = None
                if w_push is not None:
                    w_store.append(w_push)
                    w_push = None
                if b_emit is not None:
                    b_store.append(b_emit)
                    b_emit = None
            t += 1
            if touched:
                # Every port queue wakes both components.
                if v_wake > t:
                    v_wake = t
                if ch_wake > t:
                    ch_wake = t
                quiet = t
            elif moved:
                quiet = t
            act += moved
        if t == cycle:
            # The first cycle already needs a real tick.
            self.retry_at = cycle + 1
            return cycle

        # ---- write back
        base._c_read_bursts.value += narrow_reads
        adapter._c_word_requests.value += issued_words
        adapter._c_ar_accepted.value += ar_popped
        adapter._c_r_beats.value += r_pushed
        adapter._c_r_useful.value += emitted_bytes
        memory._c_accesses.value += granted_words
        memory._c_reads.value += granted_words - granted_writes
        queues = [(ar, ar_pushed, ar_popped), (r, r_pushed, r_popped)]
        if writing:
            base._c_write_bursts.value += narrow_writes
            adapter._c_aw_accepted.value += aw_popped
            adapter._c_w_beats.value += w_popped
            adapter._c_b_beats.value += b_pushed
            memory._c_writes.value += granted_writes
            queues += [(aw, aw_pushed, aw_popped), (w, w_pushed, w_popped),
                       (b, b_pushed, b_popped)]
        port_ops = 0
        for queue, pushed, popped in queues:
            queue.end_stream(
                len(queue._storage),
                queue.total_pushed + pushed,
                queue.total_popped + popped,
            )
            port_ops += pushed + popped
        vector.end_stream(
            v_last, vector._unissued_requests - ar_pushed - aw_pushed,
            r_popped, r_data, r_index, w_pushed, w_useful,
        )
        adapter.end_stream(
            a_last, issue_rr, emit_rr, free_after, outstanding, open_reads,
            open_writes,
        )
        memory.end_stream(req_full, flight_count)
        channel.end_stream(ch_last, ch_moved, mem_wake, port_mark)
        # Every port push and pop counts as activity, as a queue counts it.
        engine._activity += act + port_ops
        wakes[v_slot] = v_wake
        wakes[ch_slot] = ch_wake
        self.quiet_from = quiet
        return t
