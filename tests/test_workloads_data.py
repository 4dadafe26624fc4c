"""Tests for the dense and sparse data generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.dense import random_matrix, random_vector, upper_triangular
from repro.workloads.sparse import CsrMatrix, heart1_like, random_csr


class TestDenseGenerators:
    def test_matrix_shape_and_dtype(self):
        matrix = random_matrix(17, seed=3)
        assert matrix.shape == (17, 17)
        assert matrix.dtype == np.float32

    def test_seed_reproducibility(self):
        assert np.array_equal(random_matrix(8, seed=5), random_matrix(8, seed=5))
        assert not np.array_equal(random_matrix(8, seed=5), random_matrix(8, seed=6))

    def test_vector(self):
        vector = random_vector(12)
        assert vector.shape == (12,)
        assert vector.dtype == np.float32

    def test_invalid_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            random_matrix(0)
        with pytest.raises(WorkloadError):
            random_vector(-1)

    def test_upper_triangular(self):
        matrix = upper_triangular(random_matrix(6))
        assert np.all(matrix[np.tril_indices(6, k=-1)] == 0)


class TestCsrMatrix:
    def test_consistency_checks(self):
        with pytest.raises(WorkloadError):
            CsrMatrix(2, 2, row_ptr=[0, 1], col_idx=[0], values=[1.0])
        with pytest.raises(WorkloadError):
            CsrMatrix(2, 2, row_ptr=[0, 1, 3], col_idx=[0, 1], values=[1.0, 2.0])

    def test_to_dense_and_multiply_agree(self):
        matrix = random_csr(12, 12, avg_nnz_per_row=4, seed=2)
        x = random_vector(12)
        dense = matrix.to_dense()
        expected = dense.astype(np.float64) @ x.astype(np.float64)
        assert np.allclose(matrix.multiply(x), expected, rtol=1e-5)

    def test_row_slice(self):
        matrix = random_csr(6, 6, avg_nnz_per_row=3, seed=1)
        sl = matrix.row_slice(2)
        assert sl.start == int(matrix.row_ptr[2])
        assert sl.stop == int(matrix.row_ptr[3])

    def test_multiply_rejects_wrong_length(self):
        matrix = random_csr(4, 4, avg_nnz_per_row=2)
        with pytest.raises(WorkloadError):
            matrix.multiply(np.zeros(5, dtype=np.float32))


class TestGenerators:
    def test_random_csr_respects_avg_nnz(self):
        matrix = random_csr(64, 64, avg_nnz_per_row=16, seed=9)
        assert 12 <= matrix.avg_nnz_per_row <= 20

    def test_column_indices_in_range_and_sorted(self):
        matrix = random_csr(32, 24, avg_nnz_per_row=6, seed=4)
        assert matrix.col_idx.max() < 24
        for row in range(matrix.num_rows):
            sl = matrix.row_slice(row)
            cols = matrix.col_idx[sl]
            assert np.all(np.diff(cols.astype(np.int64)) > 0)

    def test_invalid_density_rejected(self):
        with pytest.raises(WorkloadError):
            random_csr(8, 8, avg_nnz_per_row=0)
        with pytest.raises(WorkloadError):
            random_csr(8, 8, avg_nnz_per_row=100)

    def test_heart1_like_properties(self):
        matrix = heart1_like(num_rows=64)
        assert matrix.num_rows == 64
        # The surrogate keeps the high per-row density of heart1 (capped by n).
        assert matrix.avg_nnz_per_row > 40

    @settings(max_examples=20)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=1000))
    def test_random_csr_invariants(self, rows, nnz, seed):
        nnz = min(nnz, rows)
        matrix = random_csr(rows, rows, avg_nnz_per_row=nnz, seed=seed)
        # row_ptr is monotone, starts at 0, ends at nnz.
        assert matrix.row_ptr[0] == 0
        assert np.all(np.diff(matrix.row_ptr.astype(np.int64)) >= 0)
        assert int(matrix.row_ptr[-1]) == matrix.nnz
        assert matrix.col_idx.dtype == np.uint32
        assert matrix.values.dtype == np.float32
        if matrix.nnz:
            assert matrix.col_idx.max() < rows
