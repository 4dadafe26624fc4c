"""Single-source shortest path: one Bellman-Ford relaxation sweep.

The graph is a weighted, directed sparse matrix in CSR form (entry ``(u, v)``
is the weight of the edge ``v -> u`` so a row gathers a node's in-edges, as
the paper's PageRank formulation does).  One sweep computes

    dist'[u] = min(dist[u], min over in-edges (dist[v] + w(v, u)))

which is a gather of ``dist[col_idx]``, an element-wise add with the edge
weights, and a min-reduction — the same memory behaviour as SpMV with the
multiply/sum replaced by add/min.
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

#: Distance used for "unreached" nodes (large but finite to keep FP math tame).
UNREACHED = np.float32(1.0e30)


class SsspWorkload(Workload):
    """One relaxation sweep of Bellman-Ford on a CSR graph."""

    name = "sssp"
    category = "indirect"

    def __init__(self, matrix: Optional[CsrMatrix] = None, num_rows: int = 64,
                 avg_nnz_per_row: Optional[float] = None, source: int = 0,
                 seed: int = 8, scalar_overhead: int = 4) -> None:
        if matrix is None:
            if avg_nnz_per_row is None:
                matrix = heart1_like(num_rows=num_rows, seed=seed)
            else:
                from repro.workloads.sparse import random_csr

                matrix = random_csr(num_rows, num_rows,
                                    avg_nnz_per_row=avg_nnz_per_row, seed=seed)
        # Edge weights must be positive for a meaningful shortest path.
        matrix = CsrMatrix(
            matrix.num_rows, matrix.num_cols, matrix.row_ptr, matrix.col_idx,
            np.abs(matrix.values) + np.float32(0.1),
        )
        self.matrix = matrix
        self.source = int(source) % matrix.num_rows
        self.scalar_overhead = scalar_overhead
        self.dist = np.full(matrix.num_cols, UNREACHED, dtype=np.float32)
        self.dist[self.source] = np.float32(0.0)
        self.layout = MemoryLayout()
        self.addr_weights = self.layout.place("weights", matrix.values.nbytes)
        self.addr_col_idx = self.layout.place("col_idx", matrix.col_idx.nbytes)
        self.addr_row_ptr = self.layout.place("row_ptr", matrix.row_ptr.nbytes)
        self.addr_dist = self.layout.place("dist", self.dist.nbytes)
        self.addr_dist_out = self.layout.place("dist_out", self.dist.nbytes)

    # ------------------------------------------------------------------ data
    def initialize(self, storage: MemoryStorage) -> None:
        storage.write_array(self.addr_weights, self.matrix.values)
        storage.write_array(self.addr_col_idx, self.matrix.col_idx)
        storage.write_array(self.addr_row_ptr, self.matrix.row_ptr)
        storage.write_array(self.addr_dist, self.dist)
        storage.write_array(self.addr_dist_out,
                            np.full(self.matrix.num_rows, UNREACHED, dtype=np.float32))

    # --------------------------------------------------------------- program
    def shard_rows(self) -> int:
        return self.matrix.num_rows

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        builder = AraProgramBuilder(self.name, mode)
        dist = self.dist

        def clamp_with_current(prog_builder: AraProgramBuilder, row: int,
                               result: str) -> str:
            current = np.float32(dist[row])
            dest = f"{result}_m"
            prog_builder.compute(
                Mnemonic.VFMIN, dest, (result,), 1,
                fn=lambda candidate: np.minimum(candidate, current).astype(np.float32),
                label=f"row {row} keep current distance if shorter",
            )
            return dest

        spec = CsrKernelSpec(combine="add", reduce="min",
                             scalar_overhead=self.scalar_overhead,
                             post_row=clamp_with_current)
        build_csr_rowwise(builder, self.matrix, self.addr_weights,
                          self.addr_col_idx, self.addr_dist, self.addr_dist_out,
                          spec, row_lo=row_lo, row_hi=row_hi)
        return builder.build()

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """Expected distances after one relaxation sweep."""
        out = np.empty(self.matrix.num_rows, dtype=np.float32)
        for row in range(self.matrix.num_rows):
            sl = self.matrix.row_slice(row)
            if sl.stop > sl.start:
                candidates = self.dist[self.matrix.col_idx[sl]] + self.matrix.values[sl]
                best = np.float32(np.min(candidates))
            else:
                best = np.float32(np.finfo(np.float32).max)
            out[row] = min(np.float32(self.dist[row]), best)
        return out

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_dist_out, self.matrix.num_rows, np.float32)
        return self._allclose(result, self.reference())
