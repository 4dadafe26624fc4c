"""Per-beat records of the W, R and B channels.

They are what flows through the data and response
:class:`~repro.sim.queue.DecoupledQueue` instances of an
:class:`~repro.axi.port.AxiPort`; the AR and AW queues carry the decoded
:class:`~repro.axi.transaction.BusRequest`.  The records carry only the
fields the bandwidth model needs; side-band signals with no performance
impact (strobes, QoS, region, cache, prot, lock) are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.axi.types import Resp


@dataclass
class RBeat:
    """One R-channel handshake: a read data beat.

    ``useful_bytes`` records how many of the bus bytes carry payload the
    requestor asked for; the channel monitor uses it to compute the packed
    bus utilization that Figs. 3 and 5 report.
    """

    txn_id: int
    data: Optional[np.ndarray]
    useful_bytes: int
    last: bool
    resp: Resp = Resp.OKAY


@dataclass
class WBeat:
    """One W-channel handshake: a write data beat."""

    data: Optional[np.ndarray]
    useful_bytes: int
    last: bool


@dataclass
class BBeat:
    """One B-channel handshake: a write response."""

    txn_id: int
    resp: Resp = Resp.OKAY
