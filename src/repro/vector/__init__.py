"""Ara-like RISC-V vector engine with the AXI-Pack extensions (paper §II-B).

The package provides:

* :mod:`repro.vector.isa` — the RVV-subset instruction set, including the
  paper's new in-memory-indexed ``vlimxei`` / ``vsimxei`` instructions;
* :mod:`repro.vector.ops` — the micro-operations the decoder produces;
* :mod:`repro.vector.builder` — an assembler-style program builder that
  workloads use to write vectorized kernels (it tracks register dependencies
  and strip-mining);
* :mod:`repro.vector.regfile` — the vector register file (functional values);
* :mod:`repro.vector.engine` — the cycle-level vector engine: it issues the
  program in order, models lanes, chaining, reductions and the scalar-core
  overhead, and drives an AXI/AXI-Pack port for its memory traffic.
"""

from repro.vector.config import VectorEngineConfig, LoweringMode
from repro.vector.isa import Mnemonic
from repro.vector.ops import ScalarWork, VectorCompute, VectorLoad, VectorStore
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.regfile import VectorRegisterFile
from repro.vector.engine import VectorEngine, EngineResult

__all__ = [
    "VectorEngineConfig",
    "LoweringMode",
    "Mnemonic",
    "ScalarWork",
    "VectorCompute",
    "VectorLoad",
    "VectorStore",
    "AraProgramBuilder",
    "Program",
    "VectorRegisterFile",
    "VectorEngine",
    "EngineResult",
]
