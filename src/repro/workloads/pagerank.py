"""One PageRank sweep over a sparse weighted adjacency matrix.

PageRank rates every node by the ranks of the nodes linking to it; one sweep
is ``r' = (1 - d)/N + d * (A_norm @ r)`` where ``A_norm`` is the column-
normalized adjacency matrix and ``d`` the damping factor.  Structurally this
is an SpMV with a per-row damping update, so the kernel reuses the shared CSR
gather kernel and adds a post-row fused multiply-add.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.vector.isa import Mnemonic
from repro.workloads.base import MemoryLayout, Workload
from repro.workloads.csr_kernel import CsrKernelSpec, build_csr_rowwise
from repro.workloads.sparse import CsrMatrix, heart1_like


class PageRankWorkload(Workload):
    """A single damped PageRank iteration on a CSR adjacency matrix."""

    name = "prank"
    category = "indirect"

    def __init__(self, matrix: Optional[CsrMatrix] = None, num_rows: int = 64,
                 avg_nnz_per_row: Optional[float] = None, damping: float = 0.85,
                 seed: int = 6, scalar_overhead: int = 4) -> None:
        if matrix is None:
            if avg_nnz_per_row is None:
                matrix = heart1_like(num_rows=num_rows, seed=seed)
            else:
                from repro.workloads.sparse import random_csr

                matrix = random_csr(num_rows, num_rows,
                                    avg_nnz_per_row=avg_nnz_per_row, seed=seed)
        # PageRank weights must be non-negative; reuse magnitudes.
        matrix = CsrMatrix(
            matrix.num_rows, matrix.num_cols, matrix.row_ptr, matrix.col_idx,
            np.abs(matrix.values) + np.float32(0.01),
        )
        self.matrix = matrix
        self.damping = float(damping)
        self.scalar_overhead = scalar_overhead
        self.ranks = np.full(matrix.num_cols, 1.0 / matrix.num_cols, dtype=np.float32)
        self.layout = MemoryLayout()
        self.addr_values = self.layout.place("values", matrix.values.nbytes)
        self.addr_col_idx = self.layout.place("col_idx", matrix.col_idx.nbytes)
        self.addr_row_ptr = self.layout.place("row_ptr", matrix.row_ptr.nbytes)
        self.addr_ranks = self.layout.place("ranks", self.ranks.nbytes)
        self.addr_out = self.layout.place("ranks_out", self.ranks.nbytes)

    # ------------------------------------------------------------------ data
    def initialize(self, storage: MemoryStorage) -> None:
        storage.write_array(self.addr_values, self.matrix.values)
        storage.write_array(self.addr_col_idx, self.matrix.col_idx)
        storage.write_array(self.addr_row_ptr, self.matrix.row_ptr)
        storage.write_array(self.addr_ranks, self.ranks)
        storage.write_array(self.addr_out,
                            np.zeros(self.matrix.num_rows, dtype=np.float32))

    # --------------------------------------------------------------- program
    def shard_rows(self) -> int:
        return self.matrix.num_rows

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        builder = AraProgramBuilder(self.name, mode)
        damping = np.float32(self.damping)
        teleport = np.float32((1.0 - self.damping) / self.matrix.num_rows)

        def damp(prog_builder: AraProgramBuilder, row: int, result: str) -> str:
            dest = f"{result}_d"
            prog_builder.compute(
                Mnemonic.VFMACC_VF, dest, (result,), 1,
                fn=lambda acc: (acc * damping + teleport).astype(np.float32),
                label=f"row {row} damping update",
            )
            return dest

        spec = CsrKernelSpec(combine="mul", reduce="sum",
                             scalar_overhead=self.scalar_overhead, post_row=damp)
        build_csr_rowwise(builder, self.matrix, self.addr_values,
                          self.addr_col_idx, self.addr_ranks, self.addr_out, spec,
                          row_lo=row_lo, row_hi=row_hi)
        return builder.build()

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """Expected ranks after one sweep."""
        spread = self.matrix.multiply(self.ranks).astype(np.float64)
        teleport = (1.0 - self.damping) / self.matrix.num_rows
        return (teleport + self.damping * spread).astype(np.float32)

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_out, self.matrix.num_rows, np.float32)
        return self._allclose(result, self.reference())
