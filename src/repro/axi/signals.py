"""Per-beat records of the W, R and B channels.

They are what flows through the data and response
:class:`~repro.sim.queue.DecoupledQueue` instances of an
:class:`~repro.axi.port.AxiPort`; the AR and AW queues carry the decoded
:class:`~repro.axi.transaction.BusRequest`.  The records carry only the
fields the bandwidth model needs; side-band signals with no performance
impact (strobes, QoS, region, cache, prot, lock) are omitted.

A beat is a named tuple: nothing changes a beat once it is on a channel,
and the tick path and the stream macro-step (:mod:`repro.system.stream`)
share the one record.  Hot paths build one with :data:`new_beat`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.axi.types import Resp


class RBeat(NamedTuple):
    """One R-channel handshake: a read data beat.

    ``useful_bytes`` records how many of the bus bytes carry payload the
    requestor asked for; the requestor sums it into the packed bus
    utilization that Figs. 3 and 5 report (``EngineResult``).
    """

    txn_id: int
    data: Optional[np.ndarray]
    useful_bytes: int
    last: bool
    resp: Resp = Resp.OKAY


class WBeat(NamedTuple):
    """One W-channel handshake: a write data beat."""

    data: Optional[np.ndarray]
    useful_bytes: int
    last: bool


class BBeat(NamedTuple):
    """One B-channel handshake: a write response."""

    txn_id: int
    resp: Resp = Resp.OKAY


#: ``new_beat(RBeat, fields)`` builds a beat from the tuple of all its
#: fields without the Python-level ``__new__`` that ``RBeat(...)`` runs.
new_beat = tuple.__new__
