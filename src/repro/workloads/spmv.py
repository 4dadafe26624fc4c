"""Sparse matrix-vector multiply (spmv) — the canonical indirect workload."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.workloads.base import MemoryLayout, Workload
from repro.workloads.csr_kernel import CsrKernelSpec, build_csr_rowwise
from repro.workloads.dense import random_vector
from repro.workloads.sparse import CsrMatrix, heart1_like


class SpmvWorkload(Workload):
    """``y = A @ x`` for a CSR matrix, walking rows and gathering ``x``."""

    name = "spmv"
    category = "indirect"

    def __init__(self, matrix: Optional[CsrMatrix] = None, num_rows: int = 64,
                 avg_nnz_per_row: Optional[float] = None, seed: int = 5,
                 scalar_overhead: int = 4) -> None:
        if matrix is None:
            if avg_nnz_per_row is None:
                matrix = heart1_like(num_rows=num_rows, seed=seed)
            else:
                from repro.workloads.sparse import random_csr

                matrix = random_csr(num_rows, num_rows,
                                    avg_nnz_per_row=avg_nnz_per_row, seed=seed)
        self.matrix = matrix
        self.x = random_vector(matrix.num_cols, seed + 1)
        self.scalar_overhead = scalar_overhead
        self.layout = MemoryLayout()
        self.addr_values = self.layout.place("values", self.matrix.values.nbytes)
        self.addr_col_idx = self.layout.place("col_idx", self.matrix.col_idx.nbytes)
        self.addr_row_ptr = self.layout.place("row_ptr", self.matrix.row_ptr.nbytes)
        self.addr_x = self.layout.place("x", self.x.nbytes)
        self.addr_y = self.layout.place("y", self.matrix.num_rows * 4)

    # ------------------------------------------------------------------ data
    def initialize(self, storage: MemoryStorage) -> None:
        storage.write_array(self.addr_values, self.matrix.values)
        storage.write_array(self.addr_col_idx, self.matrix.col_idx)
        storage.write_array(self.addr_row_ptr, self.matrix.row_ptr)
        storage.write_array(self.addr_x, self.x)
        storage.write_array(self.addr_y,
                            np.zeros(self.matrix.num_rows, dtype=np.float32))

    # --------------------------------------------------------------- program
    def shard_rows(self) -> int:
        return self.matrix.num_rows

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        builder = AraProgramBuilder(self.name, mode)
        spec = CsrKernelSpec(combine="mul", reduce="sum",
                             scalar_overhead=self.scalar_overhead)
        build_csr_rowwise(builder, self.matrix, self.addr_values,
                          self.addr_col_idx, self.addr_x, self.addr_y, spec,
                          row_lo=row_lo, row_hi=row_hi)
        return builder.build()

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """Expected output vector."""
        return self.matrix.multiply(self.x)

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_y, self.matrix.num_rows, np.float32)
        return self._allclose(result, self.reference())
