"""Bundled five-channel AXI port used to connect requestors and endpoints.

An :class:`AxiPort` owns one :class:`~repro.sim.queue.DecoupledQueue` per AXI
channel.  The requestor pushes AR/AW/W and pops R/B; the endpoint does the
opposite.  Queue depths model the channel buffering of the interconnect.
"""

from __future__ import annotations

from typing import List

from repro.axi.signals import BBeat, RBeat, WBeat
from repro.axi.transaction import BusRequest
from repro.sim.queue import DecoupledQueue


class AxiPort:
    """One requestor-to-endpoint AXI connection (five channels).

    The request channels carry full :class:`~repro.axi.transaction.BusRequest`
    objects rather than raw AR/AW beats: the decoded request is exactly what
    an RTL endpoint reconstructs from the address/len/size/user fields, and
    carrying it avoids re-decoding on every hop.

    The address and B channels hold 4 entries, the data channels (W, R) 8.
    """

    def __init__(self, name: str, bus_bytes: int) -> None:
        self.name = name
        self.bus_bytes = bus_bytes
        self.ar: DecoupledQueue[BusRequest] = DecoupledQueue(f"{name}.AR", 4)
        self.aw: DecoupledQueue[BusRequest] = DecoupledQueue(f"{name}.AW", 4)
        self.w: DecoupledQueue[WBeat] = DecoupledQueue(f"{name}.W", 8)
        self.r: DecoupledQueue[RBeat] = DecoupledQueue(f"{name}.R", 8)
        self.b: DecoupledQueue[BBeat] = DecoupledQueue(f"{name}.B", 4)

    def all_queues(self) -> List[DecoupledQueue]:
        """Every channel queue (for engine registration)."""
        return [self.ar, self.aw, self.w, self.r, self.b]

    def is_idle(self) -> bool:
        """True when no channel holds any beat."""
        return all(queue.is_empty() for queue in self.all_queues())
