"""Upper-triangular matrix-vector multiply (trmv).

Identical in spirit to :mod:`repro.workloads.gemv` but only the nonzero
(upper-triangular) elements are streamed, so rows and columns have varying
lengths — short streams near one end of the matrix, long ones near the other
(paper: "incurring bursts of varying lengths").
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import WorkloadError
from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.vector.isa import Mnemonic
from repro.workloads.base import MemoryLayout, Workload
from repro.workloads.dense import random_matrix, random_vector, upper_triangular


class TrmvWorkload(Workload):
    """``y = triu(A) @ x`` for a dense row-major ``n x n`` FP32 matrix."""

    name = "trmv"
    category = "strided"

    def __init__(self, n: int = 64, seed: int = 2, dataflow: str = "auto",
                 scalar_overhead: int = 3) -> None:
        if dataflow not in ("auto", "row", "col"):
            raise WorkloadError("dataflow must be 'auto', 'row' or 'col'")
        self.n = n
        self.dataflow = dataflow
        self.scalar_overhead = scalar_overhead
        self.matrix = upper_triangular(random_matrix(n, seed))
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
        """Resolve ``auto``: row-wise on BASE, column-wise otherwise."""
        if self.dataflow != "auto":
            return self.dataflow
        return "row" if mode is LoweringMode.BASE else "col"

    def shard_rows(self) -> int:
        return self.n

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        if self.chosen_dataflow(mode) == "row":
            return self._build_rowwise(mode, row_lo, row_hi)
        return self._build_colwise(mode, row_lo, row_hi)

    def _build_rowwise(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        n = self.n
        builder = AraProgramBuilder(f"{self.name}-row", mode)
        if row_hi <= row_lo:
            return builder.build()
        # x is preloaded once and kept in registers across all rows (it fits a
        # register group); each row multiplies against the matching slice.
        x_regs = []
        x_offset = 0
        for index, chunk in enumerate(builder.strip_mine(n)):
            reg = f"vx{index}"
            builder.vle32(reg, self.addr_x + x_offset * 4, chunk,
                          label=f"preload x chunk {index}")
            x_regs.append((reg, x_offset, chunk))
            x_offset += chunk
        for i in range(row_lo, row_hi):
            length = n - i
            builder.scalar(self.scalar_overhead, label=f"row {i} bookkeeping")
            partials: List[str] = []
            offset = 0
            for chunk_index, chunk in enumerate(builder.strip_mine(length)):
                row_addr = self.addr_a + (i * n + i + offset) * 4
                builder.vle32("v1", row_addr, chunk, label=f"row {i} nonzeros")
                x_reg = self._x_reg_for(x_regs, i + offset)
                x_lo = i + offset - x_reg[1]
                builder.compute(
                    Mnemonic.VFMUL, "v3", ("v1", x_reg[0]), chunk,
                    fn=self._slice_multiply(x_lo, chunk),
                    label=f"row {i} multiply with x slice",
                )
                partial = f"v5{chunk_index}"
                builder.vfredsum(partial, "v3", chunk, label=f"row {i} reduce")
                partials.append(partial)
                offset += chunk
            result = partials[0]
            for other in partials[1:]:
                combined = f"{result}_{other}"
                builder.vfadd(combined, result, other, 1, label="combine partials")
                result = combined
            builder.vse32(result, self.addr_y + i * 4, 1, label=f"store y[{i}]")
        return builder.build()

    def _build_colwise(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        n = self.n
        builder = AraProgramBuilder(f"{self.name}-col", mode)
        max_vl = builder.max_vl
        # Process y in chunks of rows; column j only contributes to rows <= j.
        row_start = row_lo
        while row_start < row_hi:
            chunk = min(max_vl, row_hi - row_start)
            builder.scalar(self.scalar_overhead, label="y chunk setup")
            builder.vmv_vx("v4", 0.0, chunk, label="clear accumulator")
            for j in range(row_start, n):
                # Rows row_start .. min(j, row_start+chunk-1) hold nonzeros.
                rows = min(j - row_start + 1, chunk)
                col_addr = self.addr_a + (row_start * n + j) * 4
                # Alternate column registers (software double-buffering) so
                # back-to-back strided loads keep the bus streaming.
                col_reg = "v1" if j % 2 == 0 else "v2"
                builder.scalar(1, label=f"column {j} pointer/x update")
                builder.vlse32(col_reg, col_addr, rows, stride_elems=n,
                               label=f"column {j} nonzeros")
                x_j = float(self.x[j])
                builder.compute(
                    Mnemonic.VFMACC_VF, "v4", (col_reg,), rows,
                    fn=self._partial_accumulate(rows, x_j, chunk),
                    dest_is_src=True, label=f"column {j} accumulate",
                )
            builder.vse32("v4", self.addr_y + row_start * 4, chunk,
                          label="store y chunk")
            row_start += chunk
        return builder.build()

    @staticmethod
    def _x_reg_for(x_regs, element_index: int):
        """Find the preloaded x register chunk covering ``element_index``."""
        for reg in x_regs:
            if reg[1] <= element_index < reg[1] + reg[2]:
                return reg
        return x_regs[-1]

    @staticmethod
    def _slice_multiply(x_lo: int, chunk: int):
        """Multiply a row's nonzeros by the matching slice of the x register."""
        def fn(row_vals: np.ndarray, x_full: np.ndarray) -> np.ndarray:
            return (row_vals[:chunk] * x_full[x_lo:x_lo + chunk]).astype(np.float32)
        return fn

    @staticmethod
    def _partial_accumulate(rows: int, x_j: float, chunk: int):
        """Accumulate a ``rows``-long column into the first rows of the chunk."""
        def fn(column: np.ndarray, acc: np.ndarray) -> np.ndarray:
            out = acc.astype(np.float32).copy()
            out[:rows] = out[:rows] + column[:rows] * np.float32(x_j)
            return out
        return fn

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """Expected output vector."""
        return (self.matrix.astype(np.float64) @ self.x.astype(np.float64)).astype(
            np.float32
        )

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_y, self.n, np.float32)
        return self._allclose(result, self.reference())
