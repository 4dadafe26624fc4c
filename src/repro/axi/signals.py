"""Per-beat channel records for the five AXI channels.

The W, R and B records are what flows through the data and response
:class:`~repro.sim.queue.DecoupledQueue` instances of an
:class:`~repro.axi.port.AxiPort`.  The AR and AW queues carry the decoded
:class:`~repro.axi.transaction.BusRequest` instead; :class:`ARBeat` and
:class:`AWBeat` are its wire-level view
(:meth:`~repro.axi.transaction.BusRequest.to_channel_beat`).  The records
carry only the fields the bandwidth model needs; side-band signals with no
performance impact (QoS, region, cache, prot, lock) are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.axi.types import BurstType, Resp


@dataclass
class ARBeat:
    """One AR-channel handshake: a read request."""

    txn_id: int
    addr: int
    num_beats: int
    beat_bytes: int
    burst: BurstType = BurstType.INCR
    user: int = 0

    def __post_init__(self) -> None:
        if self.num_beats < 1:
            raise ValueError("ARBeat num_beats must be >= 1")


@dataclass
class AWBeat:
    """One AW-channel handshake: a write request."""

    txn_id: int
    addr: int
    num_beats: int
    beat_bytes: int
    burst: BurstType = BurstType.INCR
    user: int = 0

    def __post_init__(self) -> None:
        if self.num_beats < 1:
            raise ValueError("AWBeat num_beats must be >= 1")


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
    strb: Optional[np.ndarray] = None


@dataclass
class BBeat:
    """One B-channel handshake: a write response."""

    txn_id: int
    resp: Resp = Resp.OKAY
