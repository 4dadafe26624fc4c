"""Dense matrix-vector multiply with row- and column-wise dataflows.

The two dataflows trade different inefficiencies (paper Fig. 3b):

* **row-wise** — each row is read contiguously (efficient on every system)
  but the dot product ends in a costly vector reduction whose latency cannot
  be hidden, and the scalar result forces a sync before the next row.
* **column-wise** — the kernel keeps a whole chunk of ``y`` in registers and
  accumulates one column at a time, eliminating reductions, but every column
  access is strided (stride = one matrix row).  This is only profitable when
  strided accesses are bus-efficient, i.e. with AXI-Pack or ideal packing.

``dataflow="auto"`` mirrors the paper: row-wise on BASE, column-wise on PACK
and IDEAL.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.workloads.base import MemoryLayout, Workload
from repro.workloads.dense import random_matrix, random_vector


class GemvWorkload(Workload):
    """``y = A @ x`` for a dense row-major ``n x n`` FP32 matrix."""

    name = "gemv"
    category = "strided"

    def __init__(self, n: int = 64, seed: int = 1, dataflow: str = "auto",
                 scalar_overhead: int = 3) -> None:
        if dataflow not in ("auto", "row", "col"):
            raise WorkloadError("dataflow must be 'auto', 'row' or 'col'")
        self.n = n
        self.dataflow = dataflow
        self.scalar_overhead = scalar_overhead
        self.matrix = random_matrix(n, seed)
        self.x = random_vector(n, seed + 1)
        self.layout = MemoryLayout()
        self.addr_a = self.layout.place("A", self.matrix.nbytes)
        self.addr_x = self.layout.place("x", self.x.nbytes)
        self.addr_y = self.layout.place("y", self.x.nbytes)

    # ------------------------------------------------------------------ data
    def initialize(self, storage: MemoryStorage) -> None:
        storage.write_array(self.addr_a, self.matrix)
        storage.write_array(self.addr_x, self.x)
        storage.write_array(self.addr_y, np.zeros(self.n, dtype=np.float32))

    # --------------------------------------------------------------- program
    def chosen_dataflow(self, mode: LoweringMode) -> str:
        """Resolve ``auto`` the way the paper does (fastest per system)."""
        if self.dataflow != "auto":
            return self.dataflow
        return "row" if mode is LoweringMode.BASE else "col"

    def shard_rows(self) -> int:
        return self.n

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        if self.chosen_dataflow(mode) == "row":
            return self._build_rowwise(mode, row_lo, row_hi)
        return self._build_colwise(mode, row_lo, row_hi)

    # ------------------------------------------------------------- row-wise
    def _build_rowwise(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        n = self.n
        builder = AraProgramBuilder(f"{self.name}-row", mode)
        x_chunks = self._load_x_chunks(builder) if row_hi > row_lo else []
        for i in range(row_lo, row_hi):
            builder.scalar(self.scalar_overhead, label=f"row {i} bookkeeping")
            partials: List[str] = []
            for chunk_index, (x_reg, offset, chunk) in enumerate(x_chunks):
                row_addr = self.addr_a + (i * n + offset) * 4
                builder.vle32("v1", row_addr, chunk, label=f"row {i} load")
                builder.vfmul("v2", "v1", x_reg, chunk, label=f"row {i} multiply")
                partial = f"v3{chunk_index}"
                builder.vfredsum(partial, "v2", chunk, label=f"row {i} reduce")
                partials.append(partial)
            result = self._combine_partials(builder, partials)
            builder.vse32(result, self.addr_y + i * 4, 1, label=f"store y[{i}]")
        return builder.build()

    # ------------------------------------------------------------- col-wise
    def _build_colwise(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        n = self.n
        builder = AraProgramBuilder(f"{self.name}-col", mode)
        if row_hi <= row_lo:
            return builder.build()
        offset = row_lo
        for chunk in builder.strip_mine(row_hi - row_lo):
            builder.scalar(self.scalar_overhead, label="y chunk setup")
            builder.vmv_vx("v4", 0.0, chunk, label="clear accumulator")
            for j in range(n):
                # Software double-buffering: alternate the column register so
                # the next strided load can stream while the previous column
                # is still being accumulated (standard RVV gemv practice).
                col_reg = "v1" if j % 2 == 0 else "v2"
                col_addr = self.addr_a + (offset * n + j) * 4
                builder.scalar(1, label=f"column {j} pointer/x update")
                builder.vlse32(col_reg, col_addr, chunk, stride_elems=n,
                               label=f"column {j} load")
                builder.vfmacc_vf("v4", col_reg, float(self.x[j]), chunk,
                                  label=f"column {j} accumulate")
            builder.vse32("v4", self.addr_y + offset * 4, chunk,
                          label="store y chunk")
            offset += chunk
        return builder.build()

    # ---------------------------------------------------------------- shared
    def _load_x_chunks(self, builder: AraProgramBuilder) -> List[Tuple[str, int, int]]:
        chunks: List[Tuple[str, int, int]] = []
        offset = 0
        for index, chunk in enumerate(builder.strip_mine(self.n)):
            reg = f"v2{4 + index}"
            builder.vle32(reg, self.addr_x + offset * 4, chunk,
                          label=f"preload x chunk {index}")
            chunks.append((reg, offset, chunk))
            offset += chunk
        return chunks

    @staticmethod
    def _combine_partials(builder: AraProgramBuilder, partials: List[str]) -> str:
        result = partials[0]
        for other in partials[1:]:
            combined = f"{result}_{other}"
            builder.vfadd(combined, result, other, 1, label="combine partial sums")
            result = combined
        return result

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """Expected output vector."""
        return (self.matrix.astype(np.float64) @ self.x.astype(np.float64)).astype(
            np.float32
        )

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_y, self.n, np.float32)
        return self._allclose(result, self.reference())
