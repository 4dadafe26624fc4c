"""In-situ matrix transpose (ismt) — the paper's flagship strided workload.

The kernel swaps the strictly-upper and strictly-lower triangles of a square
row-major matrix in place.  For each row *i* it loads the row segment
``A[i, i+1:]`` contiguously and the column segment ``A[i+1:, i]`` with a
stride of one matrix row, then stores each segment to the other's location.

On the BASE system the strided column access degenerates into one narrow
transaction per element; with AXI-Pack it becomes a packed strided burst.
Stores are marked *ordered* because Ara conservatively orders reads after
outstanding writes for potentially aliasing in-place updates — this is the
read-write ordering that caps ismt's R utilization at 50 % (paper §III-B).
"""

from __future__ import annotations

import numpy as np

from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.workloads.base import MemoryLayout, Workload
from repro.workloads.dense import random_matrix


class IsmtWorkload(Workload):
    """In-place transpose of an ``n x n`` FP32 matrix."""

    name = "ismt"
    category = "strided"

    def __init__(self, n: int = 64, seed: int = 1,
                 scalar_overhead: int = 4) -> None:
        self.n = n
        self.seed = seed
        self.scalar_overhead = scalar_overhead
        self.matrix = random_matrix(n, seed)
        self.layout = MemoryLayout()
        self.addr_a = self.layout.place("A", self.matrix.nbytes)

    # ------------------------------------------------------------------ data
    def initialize(self, storage: MemoryStorage) -> None:
        storage.write_array(self.addr_a, self.matrix)

    # --------------------------------------------------------------- program
    def shard_rows(self) -> int:
        # Iteration i swaps the strictly-upper/lower pair segments of row i;
        # each (i, j) pair is touched by exactly one iteration, so disjoint
        # iteration ranges touch disjoint memory and shard cleanly.
        return max(0, self.n - 1)

    def build_program_rows(self, mode: LoweringMode, row_lo: int, row_hi: int) -> Program:
        n = self.n
        builder = AraProgramBuilder(self.name, mode)
        elem = 4
        for i in range(row_lo, row_hi):
            length = n - 1 - i
            row_base = self.addr_a + (i * n + i + 1) * elem
            col_base = self.addr_a + ((i + 1) * n + i) * elem
            offset = 0
            for chunk in builder.strip_mine(length):
                builder.scalar(self.scalar_overhead, label=f"row {i} setup")
                builder.vle32("v1", row_base + offset * elem, chunk,
                              label=f"row {i} upper segment")
                builder.vlse32("v2", col_base + offset * n * elem, chunk,
                               stride_elems=n, label=f"row {i} lower segment")
                builder.vsse32("v1", col_base + offset * n * elem, chunk,
                               stride_elems=n, ordered=True,
                               label=f"row {i} store to lower")
                builder.vse32("v2", row_base + offset * elem, chunk, ordered=True,
                              label=f"row {i} store to upper")
                offset += chunk
        return builder.build()

    # ---------------------------------------------------------------- verify
    def reference(self) -> np.ndarray:
        """The expected memory contents after the kernel: the transpose."""
        return self.matrix.T.copy()

    def verify(self, storage: MemoryStorage) -> bool:
        result = storage.read_array(self.addr_a, self.n * self.n, np.float32)
        result = result.reshape(self.n, self.n)
        return bool(np.array_equal(result, self.reference()))
