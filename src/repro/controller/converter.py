"""Common converter interface used by the adapter."""

from __future__ import annotations

import abc
from typing import Deque, List, Optional, Tuple

from repro.axi.signals import BBeat, RBeat
from repro.axi.transaction import BusRequest
from repro.controller.lanes import _ActiveWriteBurst
from repro.mem.banked import BankedMemory

#: How many accepted-but-unfinished bursts a write converter (and either
#: indirect converter) may hold; lets back-to-back bursts keep the word
#: lanes busy.
MAX_OPEN_BURSTS = 4


class Converter(abc.ABC):
    """One of the adapter's five burst converters.

    Converters are not simulation components on their own; the adapter owns
    them and calls into them during its tick.  All port usage, R/B emission
    and W-data routing is mediated by the adapter so that the shared
    resources (one beat per channel per cycle, one access per word port per
    cycle) are arbitrated in a single place — the "bank port mux" of Fig. 2b.
    A converter reads its geometry (word lanes, word width, accesses in
    flight per port) from the config of the memory it drives.
    """

    def __init__(self, name: str, memory: BankedMemory) -> None:
        self.name = name
        self.config = memory.config

    # ------------------------------------------------------------ acceptance
    def can_accept_read(self, request: BusRequest) -> bool:
        """True if the converter can take this read burst now."""
        return False

    def accept_read(self, request: BusRequest) -> None:
        """Take ownership of a read burst."""
        raise NotImplementedError(f"{self.name} does not handle reads")

    def can_accept_write(self, request: BusRequest) -> bool:
        """True if the converter can take this write burst now."""
        return False

    def accept_write(self, request: BusRequest) -> _ActiveWriteBurst:
        """Take ownership of a write burst; return the burst's record, which
        the adapter's W routing hands back with each of its W beats."""
        raise NotImplementedError(f"{self.name} does not handle writes")

    def take_w_beat(
        self, burst: _ActiveWriteBurst, beat: int, payload: bytes
    ) -> None:
        """Take W data beat ``beat`` of an accepted write burst."""
        raise NotImplementedError(f"{self.name} does not consume W data")

    # ----------------------------------------------------------------- cycle
    @abc.abstractmethod
    def issue(self, free_ports: int, out: List[Deque[tuple]]) -> int:
        """Issue word accesses this cycle using only the given free ports.

        ``free_ports`` is a bit mask: bit *p* is set while word port *p* can
        take a request this cycle.  ``out[port]`` is the memory's request
        FIFO of each word port; every issued access appends its ``(pipe,
        batch, slot)`` tag there and clears its port's bit.  Returns the
        mask of ports left free.
        """

    # --------------------------------------------------- adapter fast tables
    #
    # The adapter prebinds per-converter container tuples at construction so
    # its per-cycle scans read deque truth values instead of paying method
    # calls.  Converters expose their hot containers through the hooks below
    # (the returned deques must be stable objects: cleared in place on
    # reset, never reassigned).

    def unissued_deques(self) -> Tuple:
        """Stable containers that are non-empty iff the converter holds
        planned word accesses it has not issued yet."""
        raise NotImplementedError(f"{self.name} does not expose issue state")

    def r_beat_deques(self) -> Optional[Tuple]:
        """Containers gating :meth:`pop_ready_r_beat`, or None if the
        converter can never emit an R beat."""
        return None

    def b_beat_deques(self) -> Optional[Tuple]:
        """Containers gating :meth:`pop_ready_b_beat`, or None if the
        converter can never emit a B response."""
        return None

    def pop_ready_r_beat(self) -> Optional[RBeat]:
        """Return a packed R beat if one is ready for the bus."""
        return None

    def pop_ready_b_beat(self) -> Optional[BBeat]:
        """Return a B response if a write burst has fully completed."""
        return None

    # ----------------------------------------------------------------- state
    @abc.abstractmethod
    def busy(self) -> bool:
        """True while the converter holds any unfinished burst."""

    def reset(self) -> None:
        """Drop all in-flight state."""
