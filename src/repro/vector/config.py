"""Configuration of the vector engine timing model."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.bitutils import is_power_of_two
from repro.utils.validation import check_positive


class LoweringMode(enum.Enum):
    """How the VLSU lowers strided / indexed vector accesses to the bus.

    * ``BASE`` — unextended Ara: one narrow transaction per element, indices
      must be fetched into vector registers first.
    * ``PACK`` — AXI-Pack-extended Ara: strided and indexed accesses become
      packed bursts; indexed accesses use the new in-memory-indexed
      instructions so indices never cross the bus.
    * ``IDEAL`` — idealized memory: accesses behave as perfectly packed
      bursts, but indices are still fetched into the core (the IDEAL system
      keeps Ara's baseline ISA).
    """

    BASE = "base"
    PACK = "pack"
    IDEAL = "ideal"

    @property
    def has_axi_pack(self) -> bool:
        """True if the new ``vlimxei``/``vsimxei`` instructions are available."""
        return self is LoweringMode.PACK

    @property
    def packs_irregular(self) -> bool:
        """True if strided/indexed accesses occupy fully packed beats."""
        return self in (LoweringMode.PACK, LoweringMode.IDEAL)


#: Vector register width of the paper's Ara: 4096 bits.
VLEN_BITS = 4096

#: Register grouping (LMUL) the kernels use.
LMUL = 8

#: Bytes held by one register group at ``LMUL``.
REGISTER_GROUP_BYTES = VLEN_BITS // 8 * LMUL

#: Element size of the vector arithmetic: FP32.
ELEM_BYTES = 4


def max_vl(elem_bytes: int) -> int:
    """Maximum vector length for a given element size at ``LMUL``."""
    return REGISTER_GROUP_BYTES // elem_bytes


@dataclass(frozen=True)
class VectorEngineConfig:
    """The lane count of the Ara-like vector engine.

    The paper's evaluation systems have eight 64-bit lanes (a 256-bit
    memory interface); each lane runs one FP32 operation per cycle.  The
    engine's fixed timing parameters are constants of
    :mod:`repro.vector.engine`.
    """

    lanes: int = 8

    def __post_init__(self) -> None:
        check_positive("lanes", self.lanes)
        if not is_power_of_two(self.lanes):
            raise ConfigurationError("lane count must be a power of two")
