"""Struct-of-arrays lane buffers, plan kernels and the converter pipes.

Every converter is a plan kernel plus a generic pipe.  A kernel turns a
whole burst (or, for the indirect element stage, a whole beat) into a
:class:`SlotBatch`: flat parallel arrays of word-lane ports, word addresses,
payload offsets, byte counts and shifts, plus per-beat prefix/useful/last
tables.  Kernels use numpy where a batch is large and C-level
``range``/``extend`` constructions where numpy call overhead would dominate;
either way the arrays end up as plain Python lists, so the per-cycle
issue/response loops of :class:`LaneReadPipe` and :class:`LaneWritePipe`
index integers instead of dereferencing objects.  The pipes issue word
accesses in order, at most ``queue_depth`` in flight per word lane (the
request regulator of paper Fig. 2c), and re-pack (reads) or unpack (writes)
bus-wide beats — the request generator, info queue and beat packer of the
RTL converters.

Slot order contract
-------------------
A kernel's slot sequence is, beat by beat, exactly the word accesses the
RTL request generator issues: same ports, same word addresses, same payload
offsets, same issue order.  ``tests/test_datapath_parity.py`` checks every
kernel slot for slot against the readable beat-at-a-time reference planners
in ``tests/reference_planners.py``.

Payload movement stays per word: the banked memory's grant reads a write's
bytes from ``beat_payload`` and deposits a read's bytes into ``beat_data``,
one slice assignment per word indexed through the flat arrays.  Only the
*geometry* work (planning, issue bookkeeping, completion tracking) is
batched.
"""

from __future__ import annotations

from collections import deque
from itertools import cycle, islice
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.axi.signals import BBeat, RBeat, new_beat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.errors import ProtocolError, SimulationError
from repro.mem.banked import BankedMemoryConfig

#: Prebound default: compared on every beat completion.
_RESP_OKAY = Resp.OKAY

#: How many accepted-but-unfinished bursts a write converter (and either
#: indirect converter) may hold; lets back-to-back bursts keep the word
#: lanes busy.
MAX_OPEN_BURSTS = 4


class SlotBatch:
    """All word accesses of one planning unit, as parallel flat arrays.

    A batch covers a whole burst (contiguous/narrow/strided planning, index
    fetches) or a single beat (indirect element planning, where indices
    arrive incrementally).  The flat arrays are plain Python lists of ints
    (converted from the numpy kernel output once) because the per-cycle
    loops index single elements, which is faster on lists than on arrays.
    Nothing writes the geometry tables after planning, so a kernel may
    share immutable tuples between batches (see :meth:`single_word`); only
    ``beat_remaining`` and the per-pipe state below are written.
    """

    __slots__ = (
        "ports",
        "words",
        "offsets",
        "nbytes",
        "shifts",
        "beat_of",
        "beat_start",
        "beat_useful",
        "beat_last",
        "beat_remaining",
        "beat_data",
        "beat_views",
        "beat_payload",
        "beat_resp",
        "num_beats",
        "num_slots",
        "all_full_words",
    )

    def __init__(
        self,
        ports: List[int],
        words: List[int],
        offsets: Sequence[int],
        nbytes: Sequence[int],
        shifts: Sequence[int],
        beat_of: Sequence[int],
        beat_start: Sequence[int],
        beat_useful: Sequence[int],
        beat_last: Sequence[bool],
        all_full_words: bool,
    ) -> None:
        self.ports = ports
        self.words = words
        self.offsets = offsets
        self.nbytes = nbytes
        self.shifts = shifts
        self.beat_of = beat_of
        self.beat_start = beat_start  #: slot-index prefix, len num_beats + 1
        self.beat_useful = beat_useful
        self.beat_last = beat_last
        self.num_beats = len(beat_useful)
        self.num_slots = len(ports)
        #: per-beat count of words not yet retired, in either direction: a
        #: beat is complete once it reaches zero
        self.beat_remaining = [
            b - a for a, b in zip(beat_start, beat_start[1:])
        ]
        self.beat_data: Optional[List[bytearray]] = None  #: read pipes only
        #: writable views of ``beat_data``: the memory's grant deposits read
        #: words through them (a slice assignment into a memoryview is
        #: cheaper than one into a bytearray)
        self.beat_views: Optional[List[memoryview]] = None
        self.beat_payload: Optional[List[Optional[bytes]]] = None  #: writes
        #: per-beat worst response — None until a beat is first poisoned, so
        #: the fault-free hot path pays one attribute check, no list
        self.beat_resp: Optional[List[Resp]] = None
        self.all_full_words = all_full_words

    @classmethod
    def single_word(cls, port: int, word: int, word_bytes: int) -> "SlotBatch":
        """A one-beat batch of one full, aligned word: a BASE narrow burst.

        Equal to what ``__init__`` builds for it, but only ``ports``,
        ``words`` and ``beat_remaining`` are lists; the other geometry tables
        are tuples, and all but ``nbytes`` and ``beat_useful`` are constants
        shared by every such batch.
        """
        batch = cls.__new__(cls)
        batch.offsets = batch.shifts = batch.beat_of = (0,)
        batch.beat_start = (0, 1)
        batch.beat_last = (True,)
        batch.nbytes = batch.beat_useful = (word_bytes,)
        batch.ports = [port]
        batch.words = [word]
        batch.beat_remaining = [1]
        batch.num_beats = 1
        batch.num_slots = 1
        batch.beat_data = None
        batch.beat_views = None
        batch.beat_payload = None
        batch.beat_resp = None
        batch.all_full_words = True
        return batch

    def poison_beat(self, beat: int, resp: Resp) -> None:
        """Merge an error response into one beat (lazy table materialize)."""
        table = self.beat_resp
        if table is None:
            table = [_RESP_OKAY] * self.num_beats
            self.beat_resp = table
        if resp.value > table[beat].value:
            table[beat] = resp

    def alloc_read_buffers(self) -> None:
        """Allocate per-beat payload assembly buffers (read pipes)."""
        self.beat_data = [bytearray(useful) for useful in self.beat_useful]
        self.beat_views = [memoryview(buffer) for buffer in self.beat_data]

    def init_write_state(self) -> None:
        """Allocate the per-beat payload table (write pipes)."""
        self.beat_payload = [None] * self.num_beats


# --------------------------------------------------------------------------
# plan kernels
#
# One kernel per traffic pattern: contiguous, narrow, strided, indexed
# (one beat at a time) and index fetch.
# --------------------------------------------------------------------------


def _batch_from_ranges(
    starts: List[int],
    ends: List[int],
    word_bytes: int,
    bus_words: int,
    beat_useful: List[int],
    beat_last: List[bool],
) -> SlotBatch:
    """Split per-beat byte ranges at word boundaries into a slot batch.

    ``starts[k] .. ends[k]`` is beat *k*'s absolute byte range; payload
    offsets restart at zero for every beat.  Word-aligned ranges (the
    overwhelmingly common case) take a fast path built entirely from
    C-level ``range``/``extend`` operations; misaligned edges fall back to
    the generic splitter.
    """
    ports: List[int] = []
    words: List[int] = []
    offsets: List[int] = []
    nbytes: List[int] = []
    shifts: List[int] = []
    beat_of: List[int] = []
    n_beats = len(beat_useful)
    beat_start = [0] * (n_beats + 1)
    aligned = True
    for k in range(n_beats):
        start = starts[k]
        end = ends[k]
        if start % word_bytes == 0 and end % word_bytes == 0:
            count = (end - start) // word_bytes
            first = start // word_bytes
            words.extend(range(first, first + count))
            # Consecutive words take consecutive lanes, wrapping around.
            lane = first % bus_words
            ports.extend(islice(cycle(range(bus_words)), lane, lane + count))
            offsets.extend(range(0, count * word_bytes, word_bytes))
            nbytes.extend([word_bytes] * count)
            shifts.extend([0] * count)
            beat_of.extend([k] * count)
        else:
            aligned = False
            addr = start
            while addr < end:
                word, shift = divmod(addr, word_bytes)
                seg = word_bytes - shift
                left = end - addr
                if seg > left:
                    seg = left
                ports.append(word % bus_words)
                words.append(word)
                offsets.append(addr - start)
                nbytes.append(seg)
                shifts.append(shift)
                beat_of.append(k)
                addr += seg
        beat_start[k + 1] = len(words)
    return SlotBatch(
        ports=ports,
        words=words,
        offsets=offsets,
        nbytes=nbytes,
        shifts=shifts,
        beat_of=beat_of,
        beat_start=beat_start,
        beat_useful=beat_useful,
        beat_last=beat_last,
        all_full_words=aligned,
    )


def batch_contiguous(
    request: BusRequest, word_bytes: int, bus_words: int
) -> SlotBatch:
    """Plan a plain full-width AXI4 INCR burst, striped across the lanes."""
    num_beats = request.num_beats
    addr = request.addr
    bus_bytes = request.bus_bytes
    payload_end = addr + request.payload_bytes
    line0 = (addr // bus_bytes) * bus_bytes
    starts = []
    ends = []
    line = line0
    for _ in range(num_beats):
        starts.append(addr if addr > line else line)
        line += bus_bytes
        ends.append(payload_end if payload_end < line else line)
    beat_useful = [e - s for s, e in zip(starts, ends)]
    beat_last = [False] * num_beats
    beat_last[-1] = True
    return _batch_from_ranges(starts, ends, word_bytes, bus_words,
                              beat_useful, beat_last)


def batch_narrow(
    request: BusRequest, word_bytes: int, bus_words: int
) -> SlotBatch:
    """Plan a narrow (element-per-beat) plain AXI4 burst.

    This is the BASE system's strided/indexed fallback: every beat carries a
    single element, however wide the bus is.
    """
    num_beats = request.num_beats
    elem_bytes = request.elem_bytes
    addr = request.addr
    if num_beats == 1 and elem_bytes == word_bytes and addr % word_bytes == 0:
        # One aligned word per burst, as BASE lowers every gather/scatter.
        first = addr // word_bytes
        return SlotBatch.single_word(first % bus_words, first, word_bytes)
    beat_last = [False] * num_beats
    beat_last[-1] = True
    starts = [addr + k * elem_bytes for k in range(num_beats)]
    ends = [s + elem_bytes for s in starts]
    return _batch_from_ranges(starts, ends, word_bytes, bus_words,
                              [elem_bytes] * num_beats, beat_last)


def batch_index_fetch(
    request: BusRequest,
    bus_bytes: int,
    word_bytes: int,
    bus_words: int,
) -> SlotBatch:
    """Plan the index stage of an indirect burst: whole bus-wide lines.

    The paper fetches "indices as whole bus lines"; each line becomes one
    beat of contiguous word reads.  These beats never reach the R channel —
    they feed the converter's offsets-extraction logic.
    """
    index_base = request.index_base
    total_bytes = request.num_elements * request.pack.index_bytes
    num_lines = -(-(index_base % bus_bytes + total_bytes) // bus_bytes)
    line_base = (index_base // bus_bytes) * bus_bytes
    total_end = index_base + total_bytes
    starts = []
    ends = []
    line = line_base
    for _ in range(num_lines):
        starts.append(index_base if index_base > line else line)
        line += bus_bytes
        ends.append(total_end if total_end < line else line)
    beat_last = [False] * num_lines
    beat_last[-1] = True
    return _batch_from_ranges(starts, ends, word_bytes, bus_words,
                              [e - s for s, e in zip(starts, ends)], beat_last)


def _packed_element_batch(
    element_addrs: np.ndarray,
    locals_: np.ndarray,
    beat_of_elem: np.ndarray,
    beat_useful: List[int],
    beat_last: List[bool],
    elem_bytes: int,
    word_bytes: int,
    bus_words: int,
) -> SlotBatch:
    """Expand word-aligned packed elements into a slot batch.

    Element ``e`` contributes ``wpe = elem_bytes // word_bytes`` full-word
    slots on lanes ``(local(e) * wpe + w) % bus_words``: in the RTL the
    packed position of an element inside its beat fixes its word lanes.
    """
    if elem_bytes % word_bytes != 0:
        raise ProtocolError(
            f"element size {elem_bytes}B must be a multiple of the "
            f"{word_bytes}B bank word for packed handling"
        )
    misaligned = element_addrs % word_bytes
    if misaligned.any():
        bad = int(element_addrs[np.argmax(misaligned != 0)])
        raise ProtocolError(
            f"packed element address {bad:#x} is not word aligned"
        )
    wpe = elem_bytes // word_bytes
    word_steps = np.arange(wpe, dtype=np.int64)
    words = (element_addrs[:, None] + word_steps * word_bytes) // word_bytes
    ports = (locals_[:, None] * wpe + word_steps) % bus_words
    offsets = locals_[:, None] * elem_bytes + word_steps * word_bytes
    n_beats = len(beat_useful)
    counts = np.bincount(beat_of_elem, minlength=n_beats) * wpe
    beat_start = [0] * (n_beats + 1)
    running = 0
    for k, count in enumerate(counts.tolist()):
        running += count
        beat_start[k + 1] = running
    total = element_addrs.size * wpe
    return SlotBatch(
        ports=ports.ravel().tolist(),
        words=words.ravel().tolist(),
        offsets=offsets.ravel().tolist(),
        nbytes=[word_bytes] * total,
        shifts=[0] * total,
        beat_of=np.repeat(beat_of_elem, wpe).tolist(),
        beat_start=beat_start,
        beat_useful=beat_useful,
        beat_last=beat_last,
        all_full_words=True,
    )


def batch_strided(
    request: BusRequest, word_bytes: int, bus_words: int
) -> SlotBatch:
    """Plan an AXI-Pack strided burst.

    Beat *b* packs elements ``b*epb .. (b+1)*epb - 1`` (``epb`` elements per
    beat); element *e* lives at ``addr + e * stride * elem_bytes``.
    """
    elem_bytes = request.elem_bytes
    stride_bytes = request.pack.stride_elems * elem_bytes
    num_elements = request.num_elements
    elems_per_beat = request.bus_bytes // elem_bytes
    num_beats = request.num_beats
    beat_useful = [
        (min(num_elements, (k + 1) * elems_per_beat) - k * elems_per_beat)
        * elem_bytes
        for k in range(num_beats)
    ]
    beat_last = [False] * num_beats
    beat_last[-1] = True
    addr = request.addr
    if (
        elem_bytes == word_bytes
        and addr % word_bytes == 0
        and stride_bytes % word_bytes == 0
    ):
        # Word-sized aligned elements: one slot per element, cyclic lane and
        # offset patterns, everything built from C-level list operations.
        word_stride = stride_bytes // word_bytes
        first = addr // word_bytes
        if word_stride:
            words = list(
                range(first, first + num_elements * word_stride, word_stride)
            )
        else:
            words = [first] * num_elements
        lane_pattern = [local % bus_words for local in range(elems_per_beat)]
        offset_pattern = list(range(0, elems_per_beat * elem_bytes, elem_bytes))
        beat_of: List[int] = []
        for k in range(num_beats):
            beat_of.extend([k] * (beat_useful[k] // elem_bytes))
        return SlotBatch(
            ports=(lane_pattern * num_beats)[:num_elements],
            words=words,
            offsets=(offset_pattern * num_beats)[:num_elements],
            nbytes=[word_bytes] * num_elements,
            shifts=[0] * num_elements,
            beat_of=beat_of,
            beat_start=[
                min(num_elements, k * elems_per_beat)
                for k in range(num_beats + 1)
            ],
            beat_useful=beat_useful,
            beat_last=beat_last,
            all_full_words=True,
        )
    elems = np.arange(num_elements, dtype=np.int64)
    return _packed_element_batch(
        element_addrs=addr + elems * stride_bytes,
        locals_=elems % elems_per_beat,
        beat_of_elem=elems // elems_per_beat,
        beat_useful=beat_useful,
        beat_last=beat_last,
        elem_bytes=elem_bytes,
        word_bytes=word_bytes,
        bus_words=bus_words,
    )


def batch_indexed_beat(
    request: BusRequest,
    beat: int,
    element_offsets: Sequence[int],
    word_bytes: int,
    bus_words: int,
) -> SlotBatch:
    """Plan one beat of an indirect burst once its indices are known.

    ``element_offsets`` are the beat's resolved index values in stream
    order; element addresses are ``addr + index * elem_bytes`` (the "shift
    and add" of Fig. 2d).  One single-beat batch per call, because the
    indirect converters only learn a beat's indices once its index-line
    fetches complete.  The common word-sized-element case takes a list fast
    path: for a handful of elements plain list arithmetic beats the numpy
    call overhead.
    """
    elem_bytes = request.elem_bytes
    count = len(element_offsets)
    useful = [count * elem_bytes]
    last = [beat == request.num_beats - 1]
    if elem_bytes == word_bytes:
        addr = request.addr
        words = []
        bad = -1
        for index in element_offsets:
            byte_addr = addr + index * elem_bytes
            word, rem = divmod(byte_addr, word_bytes)
            if rem:
                bad = byte_addr
                break
            words.append(word)
        if bad < 0:
            return SlotBatch(
                ports=[local % bus_words for local in range(count)],
                words=words,
                offsets=list(range(0, count * elem_bytes, elem_bytes)),
                nbytes=[word_bytes] * count,
                shifts=[0] * count,
                beat_of=[0] * count,
                beat_start=[0, count],
                beat_useful=useful,
                beat_last=last,
                all_full_words=True,
            )
        raise ProtocolError(
            f"packed element address {bad:#x} is not word aligned"
        )
    offsets = np.asarray(element_offsets, dtype=np.int64)
    return _packed_element_batch(
        element_addrs=request.addr + offsets * elem_bytes,
        locals_=np.arange(count, dtype=np.int64),
        beat_of_elem=np.zeros(count, dtype=np.int64),
        beat_useful=useful,
        beat_last=last,
        elem_bytes=elem_bytes,
        word_bytes=word_bytes,
        bus_words=bus_words,
    )


# --------------------------------------------------------------------------
# lane pipes
# --------------------------------------------------------------------------


class _LanePipe:
    """What the read and write pipes share: in-order word issue over the
    slot ranges queued in ``_unissued``, each ``[batch, cursor, end]``."""

    __slots__ = ("name", "config", "in_flight", "_beats", "_unissued")

    def __init__(self, name: str, config: BankedMemoryConfig) -> None:
        self.name = name
        self.config = config
        #: word accesses in flight per port, capped at ``config.queue_depth``
        self.in_flight: List[int] = [0] * config.num_ports
        #: the pipe's beats in order, oldest first
        self._beats: Deque[tuple] = deque()
        #: slot ranges not yet issued, oldest first: [batch, cursor, end]
        self._unissued: Deque[List] = deque()

    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        """Issue word accesses in order, using only the ports in ``free_ports``.

        ``free_ports`` is a bit mask (bit *p* set: port *p* may take a
        request this cycle).  Each issued access appends its ``(pipe,
        batch, slot)`` tag to ``out[port]``, the memory's request FIFO for
        that port, and clears the port's bit; the mask left over is
        returned, so other pipes sharing the memory ports this cycle cannot
        double-book them.  Issue stops at the first slot whose port is
        unavailable or already has ``queue_depth`` accesses in flight,
        preserving the in-order request discipline of the RTL request
        generator.  The memory reads a write's data from the beat's
        ``beat_payload`` when it grants the access.
        """
        unissued = self._unissued
        in_flight = self.in_flight
        limit = self.config.queue_depth
        while unissued:
            entry = unissued[0]
            batch = entry[0]
            ports = batch.ports
            i = entry[1]
            end = entry[2]
            while i < end:
                port = ports[i]
                bit = 1 << port
                if not free_ports & bit or in_flight[port] >= limit:
                    entry[1] = i
                    return free_ports
                free_ports ^= bit
                in_flight[port] += 1
                out[port].append((self, batch, i))
                i += 1
            unissued.popleft()
        return free_ports

    def reset(self) -> None:
        """Drop all state (component reset)."""
        self._beats.clear()
        self._unissued.clear()
        self.in_flight = [0] * self.config.num_ports


class LaneReadPipe(_LanePipe):
    """Issues word reads beat by beat and re-packs the returned words.

    Beats are issued and completed strictly in order, which keeps the R
    channel ordering rules trivially satisfied and matches the info-queue
    discipline of the RTL beat packer.  ``_beats`` holds ``(batch, beat
    index, request)`` in plan order.
    """

    __slots__ = ()

    # -------------------------------------------------------------- planning
    def add_batch(
        self,
        request: BusRequest,
        batch: SlotBatch,
        resp: Resp = _RESP_OKAY,
    ) -> None:
        """Queue one planned slot batch belonging to ``request``.

        ``resp`` pre-poisons every beat of the batch (element beats planned
        from a poisoned index fetch).
        """
        batch.alloc_read_buffers()
        if resp is not _RESP_OKAY:
            batch.beat_resp = [resp] * batch.num_beats
        beats = self._beats
        for k in range(batch.num_beats):
            beats.append((batch, k, request))
        if batch.num_slots:
            self._unissued.append([batch, 0, batch.num_slots])

    # --------------------------------------------------------------- packing
    def _check_issued(self, batch: SlotBatch, k: int) -> None:
        """Consistency guard: a beat with word accesses cannot complete
        before all of them were issued."""
        unissued = self._unissued
        if (
            unissued
            and unissued[0][0] is batch
            and unissued[0][1] < batch.beat_start[k + 1]
        ):
            raise SimulationError(
                f"{self.name}: beat completed before all slots were issued"
            )

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        """Return the oldest beat as an R-channel beat if it is complete,
        removing it from the pipe."""
        beats = self._beats
        if not beats:
            return None
        batch, k, request = beats[0]
        if batch.beat_remaining[k]:
            return None
        beats.popleft()
        self._check_issued(batch, k)
        resps = batch.beat_resp
        # The assembly buffer is complete and never written again, so it is
        # handed out without a defensive copy.
        return new_beat(RBeat, (
            request.txn_id,
            batch.beat_data[k],
            batch.beat_useful[k],
            batch.beat_last[k],
            _RESP_OKAY if resps is None else resps[k],
        ))

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        """True while any beat is pending issue, in flight or awaiting packing."""
        return bool(self._beats)

    def pending_beats(self) -> int:
        """Number of beats currently tracked by the pipe."""
        return len(self._beats)


class _ActiveWriteBurst:
    """Book-keeping for one write burst travelling through a LaneWritePipe.

    The adapter's W routing holds the record of every burst still owed W
    data, and counts each W beat it routes in ``w_beats_received`` (a burst
    a fault plan loses has a record there and no pipe).  ``resp``
    accumulates the worst response of the burst's retired beats and becomes
    the B response when the burst completes.
    """

    __slots__ = ("request", "batch", "w_beats_received", "beats_completed",
                 "resp")

    def __init__(self, request: BusRequest, batch: Optional[SlotBatch]) -> None:
        self.request = request
        #: the whole-burst batch of a burst planned up front, else None
        self.batch = batch
        self.w_beats_received = 0
        self.beats_completed = 0
        self.resp = _RESP_OKAY

    @property
    def complete(self) -> bool:
        return self.beats_completed >= self.request.num_beats


class LaneWritePipe(_LanePipe):
    """Unpacks W beats into word writes and tracks their acknowledgements.

    Bursts planned up front (strided / contiguous / narrow) carry one
    whole-burst :class:`SlotBatch` built at acceptance; each beat is *armed*
    (:meth:`arm_beat`) when its W data arrives, which is when its slot range
    joins the issue queue and ``(batch, beat index, burst)`` joins
    ``_beats``.  Indirect
    bursts pass ``batch=None`` and add armed single-beat batches explicitly
    once indices and payload are both known.  Which burst a W beat belongs
    to is the adapter's W routing's business, not the pipe's.
    """

    __slots__ = ("_bursts",)

    def __init__(self, name: str, config: BankedMemoryConfig) -> None:
        super().__init__(name, config)
        self._bursts: Deque[_ActiveWriteBurst] = deque()

    # -------------------------------------------------------------- planning
    def accept(
        self, request: BusRequest, batch: Optional[SlotBatch]
    ) -> _ActiveWriteBurst:
        """Accept a write burst; ``batch`` covers it fully or is None."""
        if batch is not None:
            self._plan(batch)
        burst = _ActiveWriteBurst(request, batch)
        self._bursts.append(burst)
        return burst

    def add_beat_batch(
        self,
        batch: SlotBatch,
        payload: bytes,
        burst: _ActiveWriteBurst,
        resp: Resp = _RESP_OKAY,
    ) -> None:
        """Queue one explicitly planned single-beat batch (indirect writes).

        ``resp`` pre-poisons the beat (indices substituted after an errored
        index fetch).
        """
        self._plan(batch)
        if resp is not _RESP_OKAY:
            batch.beat_resp = [resp] * batch.num_beats
        self.arm_beat(batch, 0, payload, burst)

    def _plan(self, batch: SlotBatch) -> None:
        """Take a planned batch.  The model writes whole words only, so a
        slot that writes less than a word is an error, raised here."""
        if not batch.all_full_words:
            word_bytes = self.config.word_bytes
            for slot in range(batch.num_slots):
                if batch.nbytes[slot] != word_bytes or batch.shifts[slot] != 0:
                    raise SimulationError(
                        f"{self.name}: partial-word write at word "
                        f"{batch.words[slot]:#x} — the model requires "
                        "word-aligned write payloads"
                    )
        batch.init_write_state()

    def arm_beat(
        self, batch: SlotBatch, beat: int, payload: bytes, burst: _ActiveWriteBurst
    ) -> None:
        """Arm beat ``beat`` of ``batch``, a batch of ``burst``, with its W
        data: its word writes join the issue queue."""
        batch.beat_payload[beat] = bytes(payload)
        self._beats.append((batch, beat, burst))
        start = batch.beat_start[beat]
        end = batch.beat_start[beat + 1]
        if end > start:
            self._unissued.append([batch, start, end])

    # -------------------------------------------------------------- emission
    def pop_ready_b_beat(self) -> Optional[BBeat]:
        """Return a B beat once the oldest burst's writes are all complete."""
        self._retire_completed_beats()
        if not self._bursts:
            return None
        burst = self._bursts[0]
        # (A beat completes only after its W beat armed it, so a complete
        # burst received all its W data.)
        if burst.complete:
            self._bursts.popleft()
            return new_beat(BBeat, (burst.request.txn_id, burst.resp))
        return None

    def _retire_completed_beats(self) -> None:
        beats = self._beats
        while beats:
            batch, beat, burst = beats[0]
            if batch.beat_remaining[beat]:
                break
            beats.popleft()
            burst.beats_completed += 1
            resps = batch.beat_resp
            if resps is not None:
                resp = resps[beat]
                if resp.value > burst.resp.value:
                    burst.resp = resp

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        """True while any burst or beat is still in progress."""
        return bool(self._bursts) or bool(self._beats)

    def reset(self) -> None:
        """Drop all state (component reset)."""
        super().reset()
        self._bursts.clear()
