"""Functional (zero-time) burst execution against the backing store.

These helpers compute, for any :class:`~repro.axi.transaction.BusRequest`,
the exact payload bytes the burst should move.  They serve three purposes:

* the :class:`~repro.mem.ideal.IdealMemoryEndpoint` uses them to answer
  requests with perfect packing;
* the test suite uses them as the golden reference the cycle-level
  controller must match byte for byte;
* the fast analytic model uses them when it needs functional results
  without paying for the cycle-level simulation.
"""

from __future__ import annotations

import numpy as np

from typing import Optional

from repro.axi.pack import INDEX_DTYPES, PackMode
from repro.axi.stream import IndirectStream, Stream
from repro.axi.transaction import BusRequest
from repro.errors import MemoryAccessError, ProtocolError
from repro.mem.storage import MemoryStorage


def stream_element_addresses(storage: MemoryStorage,
                             stream: Stream) -> np.ndarray:
    """Return the byte address of every element an access stream touches.

    The stream-level twin of :func:`element_addresses`: it answers before any
    lowering to bus requests has happened, so the functional oracle can
    resolve a whole vector load/store in one step.  Indirect streams read
    their index array from ``storage`` — the oracle therefore sees the same
    indices the cycle-level controller (or the engine's register file, for
    register-indexed ops on the BASE system) resolves.
    """
    if isinstance(stream, IndirectStream):
        indices = storage.read_array(
            stream.index_base, stream.num_elements,
            INDEX_DTYPES[stream.index_bytes],
        )
        return stream.element_addresses(indices)
    return stream.element_addresses()


def element_addresses(storage: MemoryStorage, request: BusRequest) -> np.ndarray:
    """Return the byte address of every element the burst touches.

    For indirect bursts the index array is read from ``storage`` — the same
    indirection the controller's index stage performs bank-side.
    """
    if request.mode is PackMode.STRIDED:
        stride_bytes = request.pack.stride_elems * request.elem_bytes
        return request.addr + np.arange(request.num_elements, dtype=np.int64) * stride_bytes
    if request.mode is PackMode.INDIRECT:
        indices = storage.read_array(
            request.index_base, request.num_elements,
            INDEX_DTYPES[request.pack.index_bytes],
        ).astype(np.int64)
        return request.addr + indices * request.elem_bytes
    if request.contiguous or request.is_narrow:
        return request.addr + np.arange(request.num_elements, dtype=np.int64) * request.elem_bytes
    raise ProtocolError(f"cannot compute addresses for {request.describe()}")


def burst_fault_address(storage: MemoryStorage,
                        request: BusRequest) -> Optional[int]:
    """First byte address the burst touches outside ``storage``, or None.

    The cycle-level endpoints use this *before* moving any data to decide
    whether a burst completes with ``SLVERR`` instead of raising — the
    check is purely functional (element addresses only).  An indirect
    burst whose index array itself lies outside memory faults at its
    ``index_base``.
    """
    size = storage.size_bytes
    if request.contiguous and not request.is_packed:
        if request.addr < 0:
            return request.addr
        end = request.addr + request.payload_bytes
        if end > size:
            return max(request.addr, size)
        return None
    try:
        addresses = element_addresses(storage, request)
    except MemoryAccessError:
        return request.index_base
    bad = np.nonzero((addresses < 0) | (addresses + request.elem_bytes > size))[0]
    if len(bad):
        return int(addresses[bad[0]])
    return None


def read_burst_payload(storage: MemoryStorage, request: BusRequest) -> np.ndarray:
    """Return the packed payload bytes a read burst delivers to the requestor.

    The result has ``request.payload_bytes`` bytes: element 0 first, tightly
    packed, exactly as AXI-Pack places them on the R channel (and as a plain
    contiguous burst would deliver them).
    """
    if request.is_write:
        raise ProtocolError("read_burst_payload called with a write request")
    if request.contiguous and not request.is_packed:
        return storage.read(request.addr, request.payload_bytes)
    addresses = element_addresses(storage, request)
    return storage.read_scattered(addresses, request.elem_bytes)


def write_burst_payload(
    storage: MemoryStorage, request: BusRequest, payload: np.ndarray
) -> None:
    """Apply a write burst's packed payload to the backing store."""
    if not request.is_write:
        raise ProtocolError("write_burst_payload called with a read request")
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = np.frombuffer(payload, dtype=np.uint8)
    else:
        payload = np.asarray(payload, dtype=np.uint8).ravel()
    if len(payload) != request.payload_bytes:
        raise ProtocolError(
            f"write payload of {len(payload)} bytes does not match the "
            f"{request.payload_bytes}-byte burst"
        )
    if request.contiguous and not request.is_packed:
        storage.write(request.addr, payload)
        return
    addresses = element_addresses(storage, request)
    storage.write_scattered(addresses, payload, request.elem_bytes)
