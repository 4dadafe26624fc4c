"""RVV-subset instruction set plus the AXI-Pack in-memory-indexed extension.

Only the instructions the evaluation kernels need are modelled.  The two new
instructions introduced by the paper, ``vlimxei`` and ``vsimxei``, perform
indexed accesses whose index array lives *in memory*; they are only decodable
when the vector unit has the AXI-Pack extension (the PACK system), which is
exactly the hardware/ISA co-design point of §II-B.
"""

from __future__ import annotations

import enum

from repro.errors import WorkloadError
from repro.vector.config import LoweringMode


class Mnemonic(enum.Enum):
    """Vector instructions understood by the model."""

    # Unit-stride memory accesses.
    VLE32 = "vle32.v"
    VSE32 = "vse32.v"
    # Strided memory accesses.
    VLSE32 = "vlse32.v"
    VSSE32 = "vsse32.v"
    # Register-indexed memory accesses (indices already in a vector register).
    VLUXEI32 = "vluxei32.v"
    VSUXEI32 = "vsuxei32.v"
    # In-memory-indexed accesses (AXI-Pack extension, new in the paper).
    VLIMXEI32 = "vlimxei32.v"
    VSIMXEI32 = "vsimxei32.v"
    # Arithmetic.
    VFADD = "vfadd.vv"
    VFSUB = "vfsub.vv"
    VFMUL = "vfmul.vv"
    VFMUL_VF = "vfmul.vf"
    VFMACC = "vfmacc.vv"
    VFMACC_VF = "vfmacc.vf"
    VFMIN = "vfmin.vv"
    VFMAX = "vfmax.vv"
    VFREDSUM = "vfredusum.vs"
    VFREDMIN = "vfredmin.vs"
    VMV = "vmv.v.v"
    VMV_VX = "vmv.v.x"
    # Scalar-core bookkeeping (not a vector instruction; used for accounting).
    SCALAR = "scalar"


#: Instructions that exist only with the AXI-Pack vector extension.
AXI_PACK_ONLY = {Mnemonic.VLIMXEI32, Mnemonic.VSIMXEI32}


def check_supported(mnemonic: Mnemonic, mode: LoweringMode) -> None:
    """Raise if an instruction is not available on the given system flavour.

    The new in-memory-indexed instructions require the AXI-Pack-extended
    decoder; conversely they are the only way the PACK system expresses
    memory-side indirection.
    """
    if mnemonic in AXI_PACK_ONLY and not mode.has_axi_pack:
        raise WorkloadError(
            f"{mnemonic.value} requires the AXI-Pack vector extension and is "
            f"not available on the {mode.value.upper()} system"
        )
