"""Tests for repro.utils.linalg."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.linalg import (
    is_full_column_rank,
    orthonormal_basis,
    vector_in_column_space,
)


class TestOrthonormalBasis:
    def test_basis_is_orthonormal(self, rng):
        matrix = rng.standard_normal((10, 4))
        basis = orthonormal_basis(matrix)
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)

    def test_rank_deficient_matrix_gives_smaller_basis(self, rng):
        col = rng.standard_normal((8, 1))
        matrix = np.hstack([col, 2 * col, -col])
        basis = orthonormal_basis(matrix)
        assert basis.shape[1] == 1

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            orthonormal_basis(np.ones(5))


class TestRankCheck:
    def test_full_rank_true(self, rng):
        assert is_full_column_rank(rng.standard_normal((6, 3)))

    def test_dependent_columns_false(self, rng):
        col = rng.standard_normal((6, 1))
        assert not is_full_column_rank(np.hstack([col, col]))

    def test_rejects_vector_input(self):
        with pytest.raises(ValueError):
            is_full_column_rank(np.ones(4))


class TestVectorInColumnSpace:
    def test_member_detected(self, rng):
        H = rng.standard_normal((9, 4))
        vec = H @ rng.standard_normal(4)
        assert vector_in_column_space(H, vec)

    def test_non_member_detected(self, rng):
        H = rng.standard_normal((9, 4))
        # A random vector in R^9 is almost surely outside a 4-D subspace.
        vec = rng.standard_normal(9)
        assert not vector_in_column_space(H, vec)

    def test_zero_vector_is_member(self, rng):
        H = rng.standard_normal((9, 4))
        assert vector_in_column_space(H, np.zeros(9))

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            vector_in_column_space(rng.standard_normal((9, 4)), np.ones(5))

