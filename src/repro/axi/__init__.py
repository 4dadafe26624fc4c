"""AXI4 + AXI-Pack protocol model.

This package models the part of the paper that is the actual contribution:
the AXI-Pack extension to ARM's AXI4 on-chip protocol (paper §II-A).

The model is *beat accurate*: it represents requests (AR/AW), data beats
(R/W) and write responses (B) as Python records, enforces the AXI4 legality
rules that matter for bandwidth (burst length, 4 KiB crossing, narrow
transfers), and adds the AXI-Pack ``user``-field encoding that turns a burst
into a bus-packed strided or indirect stream.
"""

from repro.axi.types import (
    AXI4_MAX_BURST_LEN,
    AXI4_BOUNDARY_BYTES,
    Resp,
)
from repro.axi.pack import PackMode, PackUserField, PackUserLayout
from repro.axi.signals import BBeat, RBeat, WBeat
from repro.axi.stream import (
    ContiguousStream,
    IndirectStream,
    Stream,
    StridedStream,
)
from repro.axi.transaction import BusRequest
from repro.axi.builder import RequestBuilder
from repro.axi.monitor import ChannelMonitor
from repro.axi.mux import CycleAxiDemux, CycleAxiMux

__all__ = [
    "AXI4_MAX_BURST_LEN",
    "AXI4_BOUNDARY_BYTES",
    "Resp",
    "PackMode",
    "PackUserField",
    "PackUserLayout",
    "RBeat",
    "WBeat",
    "BBeat",
    "Stream",
    "ContiguousStream",
    "StridedStream",
    "IndirectStream",
    "BusRequest",
    "RequestBuilder",
    "ChannelMonitor",
    "CycleAxiMux",
    "CycleAxiDemux",
]
