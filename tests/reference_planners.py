"""Reference beat planners: the readable twin of the lane plan kernels.

Each planner turns a burst request into one :class:`BeatPlan` per beat,
holding one :class:`WordSlot` per word access, one object at a time.  The
simulator plans with the struct-of-arrays kernels of
:mod:`repro.controller.lanes`; these generators stay here as the oracle
that ``tests/test_datapath_parity.py`` checks those kernels against, slot
for slot.  Naming convention: ``plan_<stem>[_beats]`` is the reference for
``batch_<stem>``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.axi.transaction import BusRequest
from repro.errors import ProtocolError
from repro.utils.math import ceil_div


class WordSlot:
    """One word access belonging to a beat.

    Attributes
    ----------
    port:
        Word lane the access is issued on (0 .. n-1).
    word_addr:
        Target word address (byte address // word size).
    offset:
        Byte offset of this word's data inside the beat payload.
    nbytes:
        Number of bytes of this word that belong to the payload (normally the
        full word; smaller only for unaligned contiguous edges).
    byte_shift:
        Offset inside the memory word where the payload bytes start (non-zero
        only for unaligned contiguous edges).
    """

    __slots__ = ("port", "word_addr", "offset", "nbytes", "byte_shift")

    def __init__(
        self,
        port: int,
        word_addr: int,
        offset: int,
        nbytes: int,
        byte_shift: int = 0,
    ) -> None:
        self.port = port
        self.word_addr = word_addr
        self.offset = offset
        self.nbytes = nbytes
        self.byte_shift = byte_shift

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WordSlot(port={self.port}, word_addr={self.word_addr:#x}, "
            f"offset={self.offset}, nbytes={self.nbytes}, "
            f"byte_shift={self.byte_shift})"
        )


class BeatPlan:
    """All word accesses of one beat plus packing bookkeeping."""

    __slots__ = ("beat_index", "txn_id", "useful_bytes", "last", "slots")

    def __init__(
        self,
        beat_index: int,
        txn_id: int,
        useful_bytes: int,
        last: bool,
        slots: Optional[List[WordSlot]] = None,
    ) -> None:
        self.beat_index = beat_index
        self.txn_id = txn_id
        self.useful_bytes = useful_bytes
        self.last = last
        self.slots = slots if slots is not None else []

    @property
    def num_words(self) -> int:
        """Number of word accesses the beat requires."""
        return len(self.slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BeatPlan(beat_index={self.beat_index}, txn_id={self.txn_id}, "
            f"useful_bytes={self.useful_bytes}, last={self.last}, "
            f"slots={self.slots!r})"
        )


def _element_word_slots(
    element_addr: int,
    elem_bytes: int,
    word_bytes: int,
    bus_words: int,
    payload_offset: int,
    lane_base: int,
) -> List[WordSlot]:
    """Word slots covering one element starting at ``element_addr``.

    Elements are at least one word wide (the controller's efficiency
    granularity), so each covers ``elem_bytes // word_bytes`` full words.
    ``lane_base`` fixes which word lane the element's first word uses; in the
    RTL the packed position of the element inside the beat determines this.
    """
    if elem_bytes % word_bytes != 0:
        raise ProtocolError(
            f"element size {elem_bytes}B must be a multiple of the "
            f"{word_bytes}B bank word for packed handling"
        )
    if element_addr % word_bytes != 0:
        raise ProtocolError(
            f"packed element address {element_addr:#x} is not word aligned"
        )
    words_per_elem = elem_bytes // word_bytes
    slots = []
    for word in range(words_per_elem):
        slots.append(
            WordSlot(
                port=(lane_base + word) % bus_words,
                word_addr=(element_addr + word * word_bytes) // word_bytes,
                offset=payload_offset + word * word_bytes,
                nbytes=word_bytes,
            )
        )
    return slots


def plan_strided_beats(
    request: BusRequest, word_bytes: int, bus_words: int
) -> Iterator[BeatPlan]:
    """Plan the beats of an AXI-Pack strided burst.

    Beat *b* packs elements ``b*epb .. (b+1)*epb - 1`` (``epb`` elements per
    beat); element *e* lives at ``addr + e * stride * elem_bytes``.
    """
    elem_bytes = request.elem_bytes
    stride_bytes = request.pack.stride_elems * elem_bytes
    words_per_elem = elem_bytes // word_bytes
    for beat in range(request.num_beats):
        first, last_excl = request.beat_elements(beat)
        slots: List[WordSlot] = []
        for local, elem in enumerate(range(first, last_excl)):
            slots.extend(
                _element_word_slots(
                    element_addr=request.addr + elem * stride_bytes,
                    elem_bytes=elem_bytes,
                    word_bytes=word_bytes,
                    bus_words=bus_words,
                    payload_offset=local * elem_bytes,
                    lane_base=local * words_per_elem,
                )
            )
        yield BeatPlan(
            beat_index=beat,
            txn_id=request.txn_id,
            useful_bytes=(last_excl - first) * elem_bytes,
            last=beat == request.num_beats - 1,
            slots=slots,
        )


def plan_indexed_beat(
    request: BusRequest,
    beat: int,
    element_offsets: Sequence[int],
    word_bytes: int,
    bus_words: int,
) -> BeatPlan:
    """Plan one beat of an indirect burst once its indices are known.

    ``element_offsets`` are the resolved index values for the beat's
    elements, in stream order; the element address is
    ``addr + index * elem_bytes`` (the "shift and add" of Fig. 2d).
    """
    elem_bytes = request.elem_bytes
    words_per_elem = elem_bytes // word_bytes
    slots: List[WordSlot] = []
    for local, index in enumerate(element_offsets):
        slots.extend(
            _element_word_slots(
                element_addr=request.addr + int(index) * elem_bytes,
                elem_bytes=elem_bytes,
                word_bytes=word_bytes,
                bus_words=bus_words,
                payload_offset=local * elem_bytes,
                lane_base=local * words_per_elem,
            )
        )
    return BeatPlan(
        beat_index=beat,
        txn_id=request.txn_id,
        useful_bytes=len(element_offsets) * elem_bytes,
        last=beat == request.num_beats - 1,
        slots=slots,
    )


def plan_contiguous_beats(
    request: BusRequest, word_bytes: int, bus_words: int
) -> Iterator[BeatPlan]:
    """Plan the beats of a plain full-width AXI4 INCR burst."""
    for beat in range(request.num_beats):
        start, end = request.beat_byte_range(beat)
        slots: List[WordSlot] = []
        offset = 0
        addr = start
        while addr < end:
            word_addr = addr // word_bytes
            byte_shift = addr - word_addr * word_bytes
            nbytes = min(word_bytes - byte_shift, end - addr)
            slots.append(
                WordSlot(
                    port=word_addr % bus_words,
                    word_addr=word_addr,
                    offset=offset,
                    nbytes=nbytes,
                    byte_shift=byte_shift,
                )
            )
            offset += nbytes
            addr += nbytes
        yield BeatPlan(
            beat_index=beat,
            txn_id=request.txn_id,
            useful_bytes=end - start,
            last=beat == request.num_beats - 1,
            slots=slots,
        )


def plan_narrow_beats(
    request: BusRequest, word_bytes: int, bus_words: int
) -> Iterator[BeatPlan]:
    """Plan the beats of a narrow (element-per-beat) plain AXI4 burst.

    This is the BASE system's strided/indexed fallback: every beat carries a
    single element, so the plan has one element's worth of word accesses per
    beat no matter how wide the bus is.
    """
    elem_bytes = request.elem_bytes
    for beat in range(request.num_beats):
        element_addr = request.addr + beat * elem_bytes
        slots: List[WordSlot] = []
        offset = 0
        addr = element_addr
        end = element_addr + elem_bytes
        while addr < end:
            word_addr = addr // word_bytes
            byte_shift = addr - word_addr * word_bytes
            nbytes = min(word_bytes - byte_shift, end - addr)
            slots.append(
                WordSlot(
                    port=word_addr % bus_words,
                    word_addr=word_addr,
                    offset=offset,
                    nbytes=nbytes,
                    byte_shift=byte_shift,
                )
            )
            offset += nbytes
            addr += nbytes
        yield BeatPlan(
            beat_index=beat,
            txn_id=request.txn_id,
            useful_bytes=elem_bytes,
            last=beat == request.num_beats - 1,
            slots=slots,
        )


def plan_index_fetch_beats(
    index_base: int,
    num_indices: int,
    index_bytes: int,
    bus_bytes: int,
    word_bytes: int,
    bus_words: int,
    txn_id: int,
) -> Iterator[BeatPlan]:
    """Plan the contiguous word fetches of an indirect burst's index stage.

    The index stage reads the index array one bus-wide line at a time (the
    paper fetches "indices as whole bus lines"); each line is ``bus_words``
    consecutive word accesses.  The plans produced here never reach the R
    channel — they feed the offsets-extraction logic of the converter.
    """
    total_bytes = num_indices * index_bytes
    num_lines = ceil_div(index_base % bus_bytes + total_bytes, bus_bytes)
    line_base = (index_base // bus_bytes) * bus_bytes
    for line in range(num_lines):
        start = max(index_base, line_base + line * bus_bytes)
        end = min(index_base + total_bytes, line_base + (line + 1) * bus_bytes)
        slots: List[WordSlot] = []
        offset = 0
        addr = start
        while addr < end:
            word_addr = addr // word_bytes
            byte_shift = addr - word_addr * word_bytes
            nbytes = min(word_bytes - byte_shift, end - addr)
            slots.append(
                WordSlot(
                    port=word_addr % bus_words,
                    word_addr=word_addr,
                    offset=offset,
                    nbytes=nbytes,
                    byte_shift=byte_shift,
                )
            )
            offset += nbytes
            addr += nbytes
        yield BeatPlan(
            beat_index=line,
            txn_id=txn_id,
            useful_bytes=end - start,
            last=line == num_lines - 1,
            slots=slots,
        )
