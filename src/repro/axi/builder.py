"""Lowering of memory streams to legal AXI4 / AXI-Pack bursts.

The :class:`RequestBuilder` is the piece of the VLSU that decides *how* a
vector memory access travels over the bus:

* On the **BASE** system, contiguous accesses become full-width INCR bursts
  (split at the 256-beat and 4 KiB limits), while strided and indexed
  accesses degenerate into one narrow single-beat transaction per element —
  exactly the inefficiency Fig. 1 of the paper illustrates.
* On the **PACK** system, strided and indexed accesses become AXI-Pack
  bursts: bus-aligned, tightly packed, and split only at the 256-beat limit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.axi.pack import PackUserField
from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.axi.transaction import BusRequest
from repro.axi.types import AXI4_BOUNDARY_BYTES, AXI4_MAX_BURST_LEN
from repro.errors import ConfigurationError
from repro.utils.bitutils import is_power_of_two


class RequestBuilder:
    """Turn streams into lists of legal :class:`BusRequest` objects.

    ``bus_bytes`` is the data bus width in bytes (the paper's systems use
    32 = 256 bit).  Bursts never exceed AXI4's 256-beat limit.
    """

    def __init__(self, bus_bytes: int) -> None:
        if not is_power_of_two(bus_bytes):
            raise ConfigurationError(
                f"bus width must be a power of two in bytes, got {bus_bytes}"
            )
        self.bus_bytes = bus_bytes

    # ------------------------------------------------------------ contiguous
    def contiguous(self, stream: ContiguousStream, is_write: bool) -> List[BusRequest]:
        """Lower a contiguous stream to full-width INCR bursts.

        Bursts are split so that none crosses a 4 KiB boundary or exceeds 256
        beats — the same splitting any AXI4 master performs.
        """
        requests: List[BusRequest] = []
        first = 0
        elem_bytes = stream.elem_bytes
        while first < stream.num_elements:
            addr = stream.base + first * elem_bytes
            remaining = stream.num_elements - first
            to_boundary = AXI4_BOUNDARY_BYTES - (addr % AXI4_BOUNDARY_BYTES)
            max_elems_boundary = max(1, to_boundary // elem_bytes)
            misalign = addr % self.bus_bytes
            max_burst_bytes = AXI4_MAX_BURST_LEN * self.bus_bytes - misalign
            max_elems_burst = max(1, max_burst_bytes // elem_bytes)
            count = min(remaining, max_elems_boundary, max_elems_burst)
            requests.append(
                BusRequest(
                    addr=addr,
                    is_write=is_write,
                    num_elements=count,
                    elem_bytes=elem_bytes,
                    bus_bytes=self.bus_bytes,
                    contiguous=True,
                )
            )
            first += count
        return requests

    # ------------------------------------------------------------ BASE paths
    def narrow_elements(
        self, addresses: np.ndarray, elem_bytes: int, is_write: bool
    ) -> List[BusRequest]:
        """Lower an array of element addresses to narrow single-beat requests.

        This is what an unextended vector unit must do for strided and
        indexed accesses: issue one address per element and waste the wide
        data bus on every beat.

        The BASE system lowers every gather/scatter through here — one
        request per element — so this is a burst-creation hot path.  All the
        requests of one call share their geometry and are legal by
        construction, so a fully validated prototype is built once and the
        rest are dict-level copies differing only in address and transaction
        id, with the prototype's cached geometry attributes pre-seeded.
        """
        if len(addresses) == 0:
            return []
        from repro.axi.transaction import next_txn_ids

        # Plain Python ints, converted in one C-level call.
        addrs = addresses.tolist()
        proto = BusRequest(
            addr=addrs[0],
            is_write=is_write,
            num_elements=1,
            elem_bytes=elem_bytes,
            bus_bytes=self.bus_bytes,
            contiguous=False,
        )
        # Touch every cached geometry attribute so the copies inherit the
        # computed values (cached_property stores them in the instance dict).
        # All are address-independent for single-element narrow bursts.
        _ = (proto.mode, proto.is_packed, proto.is_narrow, proto.elems_per_beat,
             proto.beat_bytes, proto.payload_bytes, proto.num_beats)
        requests = [proto]
        base = proto.__dict__
        cls = BusRequest
        new = object.__new__
        append = requests.append
        for addr, txn_id in zip(addrs[1:], next_txn_ids(len(addrs) - 1)):
            request = new(cls)
            copy = base.copy()
            copy["addr"] = addr
            copy["txn_id"] = txn_id
            request.__dict__ = copy
            append(request)
        return requests

    def base_strided(self, stream: StridedStream, is_write: bool) -> List[BusRequest]:
        """BASE lowering of a strided stream: one narrow request per element.

        A stride of exactly one element is a contiguous access and is lowered
        to efficient full-width bursts, matching what Ara's unextended VLSU
        already does.
        """
        if stream.stride_elems == 1:
            contiguous = ContiguousStream(
                base=stream.base,
                num_elements=stream.num_elements,
                elem_bytes=stream.elem_bytes,
            )
            return self.contiguous(contiguous, is_write)
        return self.narrow_elements(
            stream.element_addresses(), stream.elem_bytes, is_write
        )

    def base_indexed(
        self, stream: IndirectStream, indices: np.ndarray, is_write: bool
    ) -> List[BusRequest]:
        """BASE lowering of an indexed stream (indices already in registers).

        The caller supplies the index values (which it loaded into vector
        registers through a separate contiguous request); each element then
        becomes a narrow single-beat transaction.
        """
        addresses = stream.element_addresses(indices)
        return self.narrow_elements(addresses, stream.elem_bytes, is_write)

    # ------------------------------------------------------------ PACK paths
    def pack_strided(self, stream: StridedStream, is_write: bool) -> List[BusRequest]:
        """PACK lowering of a strided stream to AXI-Pack strided bursts."""
        elems_per_beat = self.bus_bytes // stream.elem_bytes
        max_elems = AXI4_MAX_BURST_LEN * elems_per_beat
        requests: List[BusRequest] = []
        first = 0
        while first < stream.num_elements:
            count = min(max_elems, stream.num_elements - first)
            base = stream.base + first * stream.stride_bytes
            requests.append(
                BusRequest(
                    addr=base,
                    is_write=is_write,
                    num_elements=count,
                    elem_bytes=stream.elem_bytes,
                    bus_bytes=self.bus_bytes,
                    pack=PackUserField.strided(stream.stride_elems),
                )
            )
            first += count
        return requests

    def pack_indirect(self, stream: IndirectStream, is_write: bool) -> List[BusRequest]:
        """PACK lowering of an indexed stream to AXI-Pack indirect bursts."""
        elems_per_beat = self.bus_bytes // stream.elem_bytes
        max_elems = AXI4_MAX_BURST_LEN * elems_per_beat
        requests: List[BusRequest] = []
        first = 0
        while first < stream.num_elements:
            count = min(max_elems, stream.num_elements - first)
            index_base = stream.index_base + first * stream.index_bytes
            requests.append(
                BusRequest(
                    addr=stream.base,
                    is_write=is_write,
                    num_elements=count,
                    elem_bytes=stream.elem_bytes,
                    bus_bytes=self.bus_bytes,
                    pack=PackUserField.indirect(stream.index_bytes, index_base),
                )
            )
            first += count
        return requests
