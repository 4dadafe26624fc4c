"""Micro-operations executed by the vector engine.

The decoder (via :class:`~repro.vector.builder.AraProgramBuilder`) turns
instructions into these records, one per instruction.  Each carries its
mnemonic, timing information (element counts, ordering constraints) and
optional functional behaviour (the streams to move, the Python callable
implementing the arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.axi.stream import Stream
from repro.vector.isa import Mnemonic


#: Dispatch-kind tags carried as plain class attributes: the engine's
#: dispatcher branches on one integer compare instead of an isinstance
#: chain (hot: it runs every tick with a pending instruction).
KIND_GENERIC = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_COMPUTE = 3
KIND_SCALAR = 4


@dataclass
class VectorOp:
    """Base class: an instruction with an id and data dependencies."""

    KIND = KIND_GENERIC

    op_id: int
    mnemonic: Mnemonic
    deps: List[int] = field(default_factory=list)
    label: str = ""

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return False


@dataclass
class VectorLoad(VectorOp):
    """A vector load: move a stream from memory into a vector register."""

    KIND = KIND_LOAD

    stream: Optional[Stream] = None
    dest: str = "v0"
    dtype: str = "float32"
    kind: str = "data"        #: "data" or "index" — used to split bus traffic
    uses_in_memory_indices: bool = False  #: True for vlimxei (AXI-Pack only)
    index_values_reg: Optional[str] = None  #: register holding indices (vluxei)

    @property
    def is_memory(self) -> bool:
        return True


@dataclass
class VectorStore(VectorOp):
    """A vector store: move a vector register to a stream in memory."""

    KIND = KIND_STORE

    stream: Optional[Stream] = None
    src: str = "v0"
    dtype: str = "float32"
    ordered: bool = False     #: if True, acts as a memory fence
    uses_in_memory_indices: bool = False
    index_values_reg: Optional[str] = None

    @property
    def is_memory(self) -> bool:
        return True


@dataclass
class VectorCompute(VectorOp):
    """An arithmetic vector instruction executed by the lanes.

    ``fn`` optionally implements the operation on numpy arrays so results
    flow functionally through the register file; timing only needs
    ``num_elements`` and whether the op is a reduction.
    """

    KIND = KIND_COMPUTE

    num_elements: int = 0
    srcs: Sequence[str] = field(default_factory=tuple)
    dest: Optional[str] = None
    is_reduction: bool = False
    ops_per_element: int = 1
    fn: Optional[Callable] = None


@dataclass
class ScalarWork(VectorOp):
    """Cycles spent by the scalar core (loop bookkeeping, address setup).

    These cycles occupy the dispatcher: no vector instruction can issue while
    scalar work is in progress, which is how per-row iteration overhead
    throttles short streams (paper §III-B, Figs. 3d/3e).
    """

    KIND = KIND_SCALAR

    cycles: int = 1
