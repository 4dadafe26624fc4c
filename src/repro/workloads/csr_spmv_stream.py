"""Streaming CSR SpMV: one whole-matrix gather pass plus a row-reduce pass.

The classic row-wise ``spmv`` kernel (:mod:`repro.workloads.spmv`) issues one
short indirect gather per row, so its index streams are bounded by the row
length.  This variant computes the same ``y = A @ x`` in two passes:

1. **Stream pass** — strip-mine over *all* ``nnz`` stored elements at once:
   load ``values`` contiguously, gather ``x[col_idx[...]]`` through the
   indirect-read path in maximum-length chunks (on PACK the indices stay in
   memory and are resolved by the controller's index stage), multiply, and
   store the products contiguously to a scratch array.
2. **Reduce pass** — per row, load the row's product segment contiguously
   and reduce it to ``y[row]``.

The long irregular index streams of pass 1 are exactly the traffic shape the
controller's indexed-beat lane kernels see least of elsewhere in the headline
grid, which is why this workload rides in it (PR 4).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.workloads.base import MemoryLayout, Workload
from repro.workloads.dense import random_vector
from repro.workloads.sparse import CsrMatrix, heart1_like


class CsrSpmvStreamWorkload(Workload):
    """``y = A @ x`` via a full-nnz gather stream and per-row reductions."""

    name = "csrspmv"
    category = "indirect"

    def __init__(self, matrix: Optional[CsrMatrix] = None, num_rows: int = 64,
                 avg_nnz_per_row: Optional[float] = None, seed: int = 7,
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
        self.addr_x = self.layout.place("x", self.x.nbytes)
        self.addr_products = self.layout.place(
            "products", max(4, self.matrix.nnz * 4)
        )
        self.addr_y = self.layout.place("y", self.matrix.num_rows * 4)

    # ------------------------------------------------------------------ data
    def initialize(self, storage: MemoryStorage) -> None:
        storage.write_array(self.addr_values, self.matrix.values)
        storage.write_array(self.addr_col_idx, self.matrix.col_idx)
        storage.write_array(self.addr_x, self.x)
        storage.write_array(self.addr_products,
                            np.zeros(max(1, self.matrix.nnz), dtype=np.float32))
        storage.write_array(self.addr_y,
                            np.zeros(self.matrix.num_rows, dtype=np.float32))

    # --------------------------------------------------------------- program
    def shard_rows(self) -> int:
        return self.matrix.num_rows

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        builder = AraProgramBuilder(self.name, mode)
        matrix = self.matrix
        # A shard streams the nonzeros of its own rows (contiguous in CSR)
        # and reduces its own row segments; the ordered store at the end of
        # its pass 1 fences only its own pass 2, which is sufficient because
        # a shard never reads another shard's products.
        nnz_lo = int(matrix.row_ptr[row_lo])
        nnz_hi = int(matrix.row_ptr[row_hi])
        nnz = nnz_hi - nnz_lo
        # Pass 1: stream the shard's nonzero range through the gather path.
        if nnz:
            offset = nnz_lo
            for chunk in builder.strip_mine(nnz):
                values_addr = self.addr_values + offset * 4
                idx_addr = self.addr_col_idx + offset * 4
                builder.vle32("v1", values_addr, chunk,
                              label=f"values[{offset}:{offset + chunk}]")
                if mode.has_axi_pack:
                    builder.vlimxei32("v2", self.addr_x, idx_addr, chunk,
                                      label=f"gather x (in-memory idx) @{offset}")
                else:
                    builder.vle32("v9", idx_addr, chunk, kind="index",
                                  dtype="uint32", label=f"col_idx @{offset}")
                    builder.vluxei32("v2", self.addr_x, "v9", chunk,
                                     index_base=idx_addr,
                                     label=f"gather x (register idx) @{offset}")
                builder.vfmul("v3", "v1", "v2", chunk,
                              label=f"products @{offset}")
                # The reduce pass reads the products back from memory, a RAW
                # hazard the builder's register tracking cannot see; the
                # final store is ordered so it fences pass 2 behind every
                # product store (same mechanism as ismt's in-place stores).
                last_chunk = offset + chunk >= nnz_hi
                builder.vse32("v3", self.addr_products + offset * 4, chunk,
                              ordered=last_chunk,
                              label=f"store products @{offset}")
                offset += chunk
        # Pass 2: reduce each row's product segment to y[row].
        for row in range(row_lo, row_hi):
            start = int(matrix.row_ptr[row])
            end = int(matrix.row_ptr[row + 1])
            row_nnz = end - start
            builder.scalar(self.scalar_overhead, label=f"row {row} bookkeeping")
            if row_nnz == 0:
                builder.vmv_vx("vzero", 0.0, 1, label=f"row {row} empty")
                builder.vse32("vzero", self.addr_y + row * 4, 1,
                              label=f"store y[{row}]")
                continue
            partials: List[str] = []
            offset = 0
            for chunk_index, chunk in enumerate(builder.strip_mine(row_nnz)):
                seg_addr = self.addr_products + (start + offset) * 4
                builder.vle32("v4", seg_addr, chunk,
                              label=f"row {row} products")
                partial = f"vr{chunk_index}"
                builder.vfredsum(partial, "v4", chunk,
                                 label=f"row {row} reduce")
                partials.append(partial)
                offset += chunk
            result = partials[0]
            for other in partials[1:]:
                merged = f"{result}_{other}"
                builder.vfadd(merged, result, other, 1, label="merge partials")
                result = merged
            builder.vse32(result, self.addr_y + row * 4, 1,
                          label=f"store y[{row}]")
        return builder.build()

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """Expected output vector."""
        return self.matrix.multiply(self.x)

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_y, self.matrix.num_rows, np.float32)
        return self._allclose(result, self.reference())
