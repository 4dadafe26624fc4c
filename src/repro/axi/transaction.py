"""Burst-level request descriptor shared by requestors and endpoints.

A :class:`BusRequest` is the model-level view of one AR or AW handshake plus
everything the endpoint needs to serve it.  It is what the AR and AW queues
carry: the decoded form of the address, length, size and ``user`` fields
(``pack.encode()`` gives the wire encoding of ``user``), so the simulator
does not have to re-parse user bits on every beat.  Every burst is INCR.

Three flavours of request exist:

* **plain contiguous** (``pack.mode is NONE``, ``contiguous=True``): a normal
  full-width AXI4 INCR burst; beats cover consecutive bus-wide lines.
* **plain narrow** (``pack.mode is NONE``, ``contiguous=False``): the
  element-per-beat transfers an unextended requestor must fall back to for
  strided/indexed accesses — each beat carries a single element and wastes
  the rest of the bus (this is the inefficiency AXI-Pack removes).
* **packed** (``pack.mode`` STRIDED or INDIRECT): an AXI-Pack burst; beats
  are bus-aligned and tightly packed with elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Tuple

from repro.axi.pack import (
    DEFAULT_LAYOUT,
    PLAIN_AXI4_FIELD,
    PackMode,
    PackUserField,
    PackUserLayout,
)
from repro.axi.types import check_burst_len_legal
from repro.errors import ConfigurationError, ProtocolError
from repro.utils.math import ceil_div

_txn_counter = itertools.count()


def next_txn_id() -> int:
    """Return a fresh globally unique transaction id."""
    return next(_txn_counter)


def next_txn_ids(count: int) -> List[int]:
    """Return ``count`` fresh globally unique transaction ids, in order."""
    return list(itertools.islice(_txn_counter, count))


def reset_txn_ids() -> None:
    """Restart transaction-id numbering (useful for reproducible tests)."""
    global _txn_counter
    _txn_counter = itertools.count()


@dataclass
class BusRequest:
    """One AXI4 or AXI-Pack burst request.

    Attributes
    ----------
    addr:
        Burst address.  For packed bursts this is the element base address
        (strided) or gather/scatter base (indirect).
    is_write:
        True for AW/W/B traffic, False for AR/R traffic.
    num_elements:
        Number of stream elements the burst carries.
    elem_bytes:
        Size of one stream element in bytes.
    bus_bytes:
        Width of the data bus the burst travels on.
    contiguous:
        For plain AXI4 requests, True selects a full-width INCR burst over
        contiguous addresses; False selects narrow element-per-beat
        transfers.  Ignored for packed requests.
    pack:
        Decoded AXI-Pack user field (mode NONE for plain AXI4).
    """

    addr: int
    is_write: bool
    num_elements: int
    elem_bytes: int
    bus_bytes: int
    contiguous: bool = False
    pack: PackUserField = field(default=PLAIN_AXI4_FIELD)
    txn_id: int = field(default_factory=next_txn_id)

    def __post_init__(self) -> None:
        if self.num_elements < 1:
            raise ProtocolError("a burst must carry at least one element")
        if self.elem_bytes < 1 or self.bus_bytes < 1:
            raise ConfigurationError("element and bus sizes must be positive")
        if self.elem_bytes > self.bus_bytes:
            raise ProtocolError(
                f"element size {self.elem_bytes}B exceeds bus width {self.bus_bytes}B"
            )
        if self.pack.mode.is_packed and self.bus_bytes % self.elem_bytes != 0:
            raise ProtocolError(
                "packed bursts require the bus width to be a multiple of the "
                f"element size (bus {self.bus_bytes}B, element {self.elem_bytes}B)"
            )
        self.validate()

    # ------------------------------------------------------------ geometry
    #
    # The geometry attributes below are pure functions of the constructor
    # fields; they are evaluated on hot simulation paths (every beat of every
    # burst), so they are cached on first access.  Requests are treated as
    # immutable once built — interconnect blocks that reshape bursts create
    # new ``BusRequest`` objects instead of mutating fields in place.

    @cached_property
    def mode(self) -> PackMode:
        """Pack mode shortcut."""
        return self.pack.mode

    @cached_property
    def index_base(self) -> int:
        """Absolute byte address of the index array (indirect bursts)."""
        return self.pack.index_base_addr

    @cached_property
    def is_packed(self) -> bool:
        """True for AXI-Pack strided/indirect bursts."""
        return self.pack.mode.is_packed

    @cached_property
    def is_narrow(self) -> bool:
        """True for plain AXI4 element-per-beat (narrow) transfers."""
        return not self.is_packed and not self.contiguous

    @cached_property
    def elems_per_beat(self) -> int:
        """Number of elements carried by one full data beat."""
        if self.is_narrow:
            return 1
        return self.bus_bytes // self.elem_bytes

    @cached_property
    def beat_bytes(self) -> int:
        """Bytes transferred per beat (the AxSIZE granularity)."""
        if self.is_narrow:
            return self.elem_bytes
        return self.bus_bytes

    @cached_property
    def payload_bytes(self) -> int:
        """Useful payload carried by the burst (excluding padding/indices)."""
        return self.num_elements * self.elem_bytes

    @cached_property
    def num_beats(self) -> int:
        """Number of data beats the burst occupies on the bus."""
        if self.is_packed:
            # AXI-Pack bursts start bus-aligned by definition (paper §II-A).
            return ceil_div(self.payload_bytes, self.bus_bytes)
        if self.contiguous:
            misalignment = self.addr % self.bus_bytes
            return ceil_div(misalignment + self.payload_bytes, self.bus_bytes)
        return self.num_elements

    def beat_elements(self, beat: int) -> Tuple[int, int]:
        """Return the ``(first, last_exclusive)`` element range of one beat.

        Only meaningful for packed and narrow requests, where elements map
        cleanly onto beats; contiguous requests should use
        :meth:`beat_byte_range` instead.
        """
        if not 0 <= beat < self.num_beats:
            raise ProtocolError(
                f"beat {beat} out of range for {self.num_beats}-beat burst"
            )
        if self.contiguous and not self.is_packed:
            raise ProtocolError(
                "beat_elements is undefined for contiguous bursts; "
                "use beat_byte_range"
            )
        per_beat = self.elems_per_beat
        start = beat * per_beat
        end = min(self.num_elements, start + per_beat)
        return start, end

    def beat_byte_range(self, beat: int) -> Tuple[int, int]:
        """Return the absolute ``[start, end)`` byte range of a contiguous beat."""
        if not self.contiguous or self.is_packed:
            raise ProtocolError("beat_byte_range only applies to contiguous bursts")
        if not 0 <= beat < self.num_beats:
            raise ProtocolError(
                f"beat {beat} out of range for {self.num_beats}-beat burst"
            )
        line_base = (self.addr // self.bus_bytes + beat) * self.bus_bytes
        start = max(self.addr, line_base)
        end = min(self.addr + self.payload_bytes, line_base + self.bus_bytes)
        return start, end

    def beat_useful_bytes(self, beat: int) -> int:
        """Useful payload bytes carried by one particular beat."""
        if self.contiguous and not self.is_packed:
            start, end = self.beat_byte_range(beat)
            return end - start
        start, end = self.beat_elements(beat)
        return (end - start) * self.elem_bytes

    # ------------------------------------------------------------ validation
    def validate(self, layout: PackUserLayout = DEFAULT_LAYOUT) -> None:
        """Check AXI4 / AXI-Pack legality rules; raise ProtocolError if broken."""
        if self.is_packed:
            check_burst_len_legal(self.num_beats)
            # Round-trip the user field to make sure it is encodable.
            self.pack.encode(layout)
            if self.pack.mode is PackMode.INDIRECT and self.index_base < 0:
                raise ProtocolError("indirect bursts need a non-negative index base")
        elif self.contiguous:
            check_burst_len_legal(self.num_beats)
            # The 4KiB rule applies to the bytes actually addressed (the first
            # and last beat may be partial, so use the payload extent).
            first_page = self.addr // 4096
            last_page = (self.addr + self.payload_bytes - 1) // 4096
            if first_page != last_page:
                raise ProtocolError(
                    f"AXI4 INCR burst from {self.addr:#x} for "
                    f"{self.payload_bytes} bytes crosses a 4KiB boundary"
                )
        else:
            check_burst_len_legal(self.num_beats)

    # ------------------------------------------------------------- describe
    def describe(self) -> str:
        """One-line human-readable summary (used in traces and errors)."""
        kind = "write" if self.is_write else "read"
        if self.pack.mode is PackMode.STRIDED:
            detail = f"stride={self.pack.stride_elems}"
        elif self.pack.mode is PackMode.INDIRECT:
            detail = f"idx_base={self.index_base:#x} idx_bytes={self.pack.index_bytes}"
        elif self.contiguous:
            detail = "contiguous"
        else:
            detail = "narrow"
        return (
            f"{kind} {self.pack.mode.value} addr={self.addr:#x} "
            f"elems={self.num_elements}x{self.elem_bytes}B beats={self.num_beats} {detail}"
        )
