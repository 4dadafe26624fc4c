"""Workload protocol and memory layout helper."""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.mem.storage import MemoryStorage
from repro.utils.math import round_up_to
from repro.vector.builder import Program
from repro.vector.config import LoweringMode, VectorEngineConfig


class MemoryLayout:
    """Simple bump allocator for placing workload arrays in the memory image.

    Arrays are aligned to the bus width by default so that contiguous
    accesses start bus-aligned (matching how a real allocator would place
    them for a vector machine).
    """

    def __init__(self, base: int = 0x1000, alignment: int = 64) -> None:
        self._next = base
        self.alignment = alignment
        self.regions: Dict[str, tuple] = {}

    def place(self, name: str, nbytes: int, alignment: Optional[int] = None) -> int:
        """Reserve ``nbytes`` for ``name`` and return its base address."""
        align = alignment or self.alignment
        addr = round_up_to(self._next, align)
        self._next = addr + nbytes
        self.regions[name] = (addr, nbytes)
        return addr

    def addr(self, name: str) -> int:
        """Base address of a previously placed region."""
        if name not in self.regions:
            raise WorkloadError(f"no region named {name!r} in the layout")
        return self.regions[name][0]

    @property
    def total_bytes(self) -> int:
        """Bytes used so far (end of the highest region)."""
        return self._next


def idle_program(name: str, mode: LoweringMode) -> Program:
    """A minimal do-nothing program for a shard that received no rows.

    The builder refuses genuinely empty programs, and an engine must retire
    at least one instruction for its ``done`` bookkeeping to be meaningful,
    so an idle shard executes a single one-cycle scalar op.
    """
    from repro.vector.builder import AraProgramBuilder

    builder = AraProgramBuilder(f"{name}-idle", mode)
    builder.scalar(1, label="idle shard (no rows assigned)")
    return builder.build()


def shard_ranges(total: int, num_shards: int) -> List[Tuple[int, int]]:
    """Split ``total`` rows into ``num_shards`` balanced contiguous ranges.

    The first ``total % num_shards`` shards take one extra row; with more
    shards than rows the trailing ranges are empty (``lo == hi``), which the
    sharded program builders turn into empty programs.
    """
    if num_shards < 1:
        raise WorkloadError("sharding needs at least one shard")
    base, extra = divmod(max(0, total), num_shards)
    bounds: List[Tuple[int, int]] = []
    low = 0
    for shard in range(num_shards):
        high = low + base + (1 if shard < extra else 0)
        bounds.append((low, high))
        low = high
    return bounds


class Workload(abc.ABC):
    """A vectorized kernel that can run on any of the evaluation systems.

    Lifecycle: :meth:`initialize` writes the input data into the simulated
    memory, :meth:`build_program` assembles the kernel for a given system
    flavour, and :meth:`verify` checks the results the simulation left in
    memory against a numpy reference.

    Sharding: every workload implements :meth:`shard_rows` (how many
    independent output rows it has) and :meth:`build_program_rows` (the
    kernel restricted to a row range).  :meth:`build_program` is the whole
    row range, and :meth:`build_sharded_programs` yields one program per
    engine over balanced contiguous row ranges.  Shards write disjoint
    output regions of the shared memory image, so :meth:`verify` checks the
    combined result exactly as in a single-engine run.
    """

    #: short name used in reports ("ismt", "gemv", ...)
    name: str = "workload"
    #: "strided" or "indirect" — which of the paper's categories it belongs to
    category: str = "strided"

    @abc.abstractmethod
    def initialize(self, storage: MemoryStorage) -> None:
        """Write the input arrays into the memory image."""

    @abc.abstractmethod
    def verify(self, storage: MemoryStorage) -> bool:
        """Check the results in memory against the reference; True if correct."""

    # -------------------------------------------------------------- sharding
    @abc.abstractmethod
    def shard_rows(self) -> int:
        """Number of independent output rows the sharded driver may split."""

    @abc.abstractmethod
    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        """Assemble the kernel restricted to output rows ``[row_lo, row_hi)``.

        Implementations may assume ``row_lo < row_hi`` (empty shards get
        :func:`idle_program`).
        """

    def build_program(self, mode: LoweringMode,
                      config: VectorEngineConfig) -> Program:
        """Assemble the whole kernel for the given system flavour.

        A program depends on the lowering mode alone; ``config`` is unused
        and stays only because ``perfbench/run.py`` passes it.
        """
        return self.build_program_rows(mode, 0, self.shard_rows())

    def build_sharded_programs(self, mode: LoweringMode,
                               config: VectorEngineConfig,
                               num_shards: int) -> List[Program]:
        """One program per engine, splitting the rows across ``num_shards``.

        ``config`` is unused, as in :meth:`build_program`, and stays only
        because ``perfbench/run.py`` passes it.
        """
        if num_shards < 1:
            raise WorkloadError("sharding needs at least one engine")
        if num_shards == 1:
            return [self.build_program(mode, config)]
        return [
            self.build_program_rows(mode, row_lo, row_hi)
            if row_hi > row_lo else idle_program(self.name, mode)
            for row_lo, row_hi in shard_ranges(self.shard_rows(), num_shards)
        ]

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Human-readable one-line description."""
        return f"{self.name} ({self.category})"

    @staticmethod
    def _allclose(actual: np.ndarray, expected: np.ndarray) -> bool:
        """FP32 comparison tolerant to accumulation-order differences."""
        return bool(
            np.allclose(actual, expected, rtol=1e-3, atol=1e-4, equal_nan=True)
        )
