"""Synthetic CSR matrices standing in for the SuiteSparse inputs.

The paper runs its indirect workloads on SuiteSparse matrices (notably
``heart1`` with 390 average nonzeros per row).  Those files are not available
in this offline environment, so this module generates synthetic CSR matrices
whose *relevant* properties are controlled parameters: number of rows,
average nonzeros per row (which sets the per-row stream length and therefore
the loop-overhead amortization of Figs. 3a/3e) and the column-index
distribution (which sets bank-conflict behaviour).  DESIGN.md documents this
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError


@dataclass
class CsrMatrix:
    """Compressed-sparse-rows matrix with FP32 values and uint32 indices."""

    num_rows: int
    num_cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.uint32)
        self.col_idx = np.asarray(self.col_idx, dtype=np.uint32)
        self.values = np.asarray(self.values, dtype=np.float32)
        if len(self.row_ptr) != self.num_rows + 1:
            raise WorkloadError("row_ptr must have num_rows + 1 entries")
        if len(self.col_idx) != len(self.values):
            raise WorkloadError("col_idx and values must have the same length")
        if self.nnz != int(self.row_ptr[-1]):
            raise WorkloadError("row_ptr[-1] must equal the number of nonzeros")

    @property
    def nnz(self) -> int:
        """Total number of stored nonzeros."""
        return len(self.values)

    @property
    def avg_nnz_per_row(self) -> float:
        """Average stored nonzeros per row."""
        return self.nnz / self.num_rows if self.num_rows else 0.0

    def row_slice(self, row: int) -> slice:
        """The ``values``/``col_idx`` slice belonging to one row."""
        return slice(int(self.row_ptr[row]), int(self.row_ptr[row + 1]))

    def to_dense(self) -> np.ndarray:
        """Dense FP32 copy (for small matrices / references)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.float32)
        for row in range(self.num_rows):
            sl = self.row_slice(row)
            dense[row, self.col_idx[sl]] = self.values[sl]
        return dense

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Reference SpMV: ``y = A @ x`` in float64 accumulation."""
        if len(x) != self.num_cols:
            raise WorkloadError("vector length does not match matrix columns")
        y = np.zeros(self.num_rows, dtype=np.float64)
        for row in range(self.num_rows):
            sl = self.row_slice(row)
            y[row] = np.dot(
                self.values[sl].astype(np.float64),
                x[self.col_idx[sl]].astype(np.float64),
            )
        return y.astype(np.float32)


def random_csr(
    num_rows: int,
    num_cols: Optional[int] = None,
    avg_nnz_per_row: float = 16.0,
    seed: int = 7,
    nnz_spread: float = 0.25,
    value_scale: float = 1.0,
) -> CsrMatrix:
    """Generate a random CSR matrix with a controlled nonzero density.

    Each row receives a nonzero count drawn uniformly from
    ``avg * (1 - spread) .. avg * (1 + spread)`` (clamped to the column
    count), with column indices sampled without replacement — the same
    gather-heavy, low-locality pattern real sparse matrices exhibit.
    """
    if num_rows <= 0:
        raise WorkloadError("num_rows must be positive")
    num_cols = num_cols or num_rows
    if avg_nnz_per_row <= 0 or avg_nnz_per_row > num_cols:
        raise WorkloadError(
            "avg_nnz_per_row must be positive and no larger than num_cols"
        )
    rng = np.random.default_rng(seed)
    low = max(1, int(round(avg_nnz_per_row * (1.0 - nnz_spread))))
    high = min(num_cols, int(round(avg_nnz_per_row * (1.0 + nnz_spread))))
    high = max(low, high)
    counts = rng.integers(low, high + 1, size=num_rows)
    row_ptr = np.zeros(num_rows + 1, dtype=np.uint32)
    row_ptr[1:] = np.cumsum(counts)
    col_idx = np.empty(int(row_ptr[-1]), dtype=np.uint32)
    for row in range(num_rows):
        start, end = int(row_ptr[row]), int(row_ptr[row + 1])
        cols = rng.choice(num_cols, size=end - start, replace=False)
        col_idx[start:end] = np.sort(cols)
    values = (rng.standard_normal(int(row_ptr[-1])) * value_scale).astype(np.float32)
    return CsrMatrix(num_rows, num_cols, row_ptr, col_idx, values)


def heart1_like(num_rows: int = 256, seed: int = 11) -> CsrMatrix:
    """A scaled-down surrogate of SuiteSparse ``heart1``.

    ``heart1`` is a 3557 x 3557 matrix with about 390 nonzeros per row; the
    surrogate keeps the per-row stream length (which is what governs the
    paper's results) while shrinking the row count so cycle-level simulation
    stays tractable.
    """
    num_rows = min(num_rows, 3557)
    avg = min(390.0, float(num_rows))
    return random_csr(num_rows, num_rows, avg_nnz_per_row=avg, seed=seed)
