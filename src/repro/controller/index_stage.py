"""The index stage of the indirect converters (paper Fig. 2d).

An indirect burst names its elements through an index array in memory.  The
index stage fetches that array one bus-wide line at a time (contiguous word
reads), extracts the individual indices from the returned lines and slices
each element beat's offsets off them.  The paper's indirect read and write
converters share this design and "differ only in the direction of the
datapath" (§II-C): each owns an :class:`IndexStage` and keeps only its
element datapath, which packs fetched elements into R beats (reads) or
unpacks W beats into scattered word writes (writes).

The element datapath has priority for the word ports; the index stage fills
the cycles it leaves idle (it runs ahead exactly one line in steady state,
which is what bounds the ideal utilization at ``r / (r + 1)`` for an
element-to-index size ratio of ``r`` — see paper §III-E).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.axi.pack import INDEX_DTYPES
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.lanes import (
    LaneReadPipe,
    SlotBatch,
    batch_index_fetch,
    batch_indexed_beat,
)
from repro.errors import SimulationError
from repro.mem.banked import BankedMemory
from repro.mem.storage import MemoryStorage
from repro.sim.stats import StatsRegistry

#: Prebound: compared once per completed index line.
_RESP_OKAY = Resp.OKAY


def read_index_oracle(storage: MemoryStorage, request: BusRequest) -> np.ndarray:
    """Resolve a burst's index values functionally.

    A *poisoned* index line carries invalid bytes, but the burst still has
    to plan (and fail) its element accesses at deterministic addresses.  The
    values are then read once from the backing storage the workload
    initialized; the per-line fetch timing is still simulated by the index
    pipe, values are just consumed from this oracle instead of the returned
    line payloads.

    Index elements that fall outside the storage resolve to zero — the bus
    reports the error in band (the fetch words answer ``SLVERR``), so the
    oracle must yield deterministic values instead of raising.
    """
    index_bytes = request.pack.index_bytes
    dtype = INDEX_DTYPES[index_bytes]
    num = request.num_elements
    base = request.index_base
    size = storage.size_bytes
    if 0 <= base and base + num * index_bytes <= size:
        return storage.read_array(base, num, dtype)
    values = np.zeros(num, dtype=dtype)
    if 0 <= base < size:
        avail = min(num, (size - base) // index_bytes)
        if avail > 0:
            values[:avail] = storage.read_array(base, avail, dtype)
    return values


class IndirectBurst:
    """Per-burst progress of an indirect burst.

    Decoded index lines are appended to ``index_list``, and each planned
    beat slices its offsets off it from ``elements_planned`` on.  ``write``
    is the write pipe's record of an indirect write burst, None for a read.
    """

    __slots__ = (
        "request",
        "write",
        "index_list",
        "elements_planned",
        "next_beat",
        "index_oracle",
        "index_resp",
    )

    def __init__(self, request: BusRequest, write) -> None:
        self.request = request
        self.write = write
        self.index_list: List[int] = []
        self.elements_planned = 0
        self.next_beat = 0
        #: materialized lazily on the first poisoned index line
        self.index_oracle: Optional[np.ndarray] = None
        #: worst response over the burst's index-fetch lines so far; element
        #: beats planned after a fault inherit it
        self.index_resp = _RESP_OKAY

    @property
    def fully_planned(self) -> bool:
        return self.elements_planned >= self.request.num_elements


class IndexStage:
    """Index fetch, offsets extraction and beat planning of one indirect
    converter.

    ``bursts`` holds the converter's accepted bursts, oldest first, until
    the converter retires them; ``pipe`` is the index fetch's lane pipe,
    whose word reads the converter issues after its element accesses.
    Counters are named ``<counters>.bursts`` and ``<counters>.index_lines``.
    """

    def __init__(
        self, name: str, counters: str, memory: BankedMemory, stats: StatsRegistry
    ) -> None:
        self.config = memory.config
        self.pipe = LaneReadPipe(f"{name}.index", self.config)
        self.bursts: Deque[IndirectBurst] = deque()
        self._storage = memory.storage
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_bursts = stats.counter(f"{counters}.bursts")
        self._c_index_lines = stats.counter(f"{counters}.index_lines")

    def accept(self, request: BusRequest, write=None) -> None:
        """Take a burst and queue the fetch of its index lines."""
        burst = IndirectBurst(request, write)
        self.bursts.append(burst)
        config = self.config
        self.pipe.add_batch(
            request,
            batch_index_fetch(
                request, config.bus_bytes, config.word_bytes, config.num_ports
            ),
        )
        self._c_bursts.value += 1

    def extract_indices(self) -> None:
        """Offsets extraction: decode returned index lines into index lists.

        The pipe returns lines in burst order, so a line belongs to the
        oldest burst whose index list is still short.  A poisoned line's
        payload bytes are invalid, so its values come from the burst's
        oracle (see :func:`read_index_oracle`) instead, sliced from the
        index list's length on.  Values are kept as a Python list so beat
        planning slices them without per-element ``int()`` boxing.
        """
        pipe = self.pipe
        while True:
            line = pipe.pop_ready_r_beat()
            if line is None:
                return
            owner = None
            for burst in self.bursts:
                if len(burst.index_list) < burst.request.num_elements:
                    owner = burst
                    break
            if owner is None or owner.request.txn_id != line.txn_id:
                raise SimulationError(
                    f"{pipe.name}: index line of txn {line.txn_id} does not "
                    "belong to the oldest burst still owed indices"
                )
            index_list = owner.index_list
            index_bytes = owner.request.pack.index_bytes
            resp = line.resp
            if resp is _RESP_OKAY:
                values = np.frombuffer(line.data, dtype=INDEX_DTYPES[index_bytes])
            else:
                pos = len(index_list)
                values = self._note_index_fault(owner, resp)[
                    pos : pos + line.useful_bytes // index_bytes
                ]
            index_list.extend(values.tolist())
            self._c_index_lines.value += 1

    def _note_index_fault(self, burst: IndirectBurst, resp: Resp) -> np.ndarray:
        """A poisoned index line: taint the burst; returns the burst's index
        oracle, whose values replace the line's."""
        oracle = burst.index_oracle
        if oracle is None:
            oracle = burst.index_oracle = read_index_oracle(
                self._storage, burst.request
            )
        if resp.value > burst.index_resp.value:
            burst.index_resp = resp
        return oracle

    def unplanned(self) -> Optional[IndirectBurst]:
        """The oldest burst with element beats left to plan, if any.

        Bursts are planned in order: a converter plans beats of this burst
        only, never of a younger one in the same cycle.
        """
        for burst in self.bursts:
            if not burst.fully_planned:
                return burst
        return None

    def next_beat(self, burst: IndirectBurst) -> Optional[SlotBatch]:
        """Plan ``burst``'s next element beat from its next offsets.

        Returns None once the burst is fully planned, or while the indices
        of its next beat have not all been extracted.
        """
        request = burst.request
        remaining = request.num_elements - burst.elements_planned
        if remaining <= 0:
            return None
        beat_elems = min(request.bus_bytes // request.elem_bytes, remaining)
        pos = burst.elements_planned
        index_list = burst.index_list
        if len(index_list) - pos < beat_elems:
            return None
        config = self.config
        batch = batch_indexed_beat(
            request,
            burst.next_beat,
            index_list[pos : pos + beat_elems],
            config.word_bytes,
            config.num_ports,
        )
        burst.elements_planned = pos + beat_elems
        burst.next_beat += 1
        return batch

    def reset(self) -> None:
        """Drop all state (component reset)."""
        self.bursts.clear()
        self.pipe.reset()
