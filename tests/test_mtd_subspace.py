"""Tests for repro.mtd.subspace (principal angles and the design metric)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid.matrices import reduced_measurement_matrix
from repro.mtd.subspace import (
    is_orthogonal_complement,
    largest_principal_angle,
    principal_angles,
    smallest_principal_angle,
    subspace_angle,
)


class TestPrincipalAngles:
    def test_identical_subspaces_have_zero_angles(self, rng):
        A = rng.standard_normal((10, 3))
        angles = principal_angles(A, 2.0 * A)
        np.testing.assert_allclose(angles, np.zeros(3), atol=1e-9)

    def test_orthogonal_subspaces_have_right_angles(self):
        A = np.zeros((6, 2))
        A[0, 0] = 1.0
        A[1, 1] = 1.0
        B = np.zeros((6, 2))
        B[2, 0] = 1.0
        B[3, 1] = 1.0
        angles = principal_angles(A, B)
        np.testing.assert_allclose(angles, np.full(2, np.pi / 2), atol=1e-9)

    def test_known_planar_angle(self):
        """Two lines in the plane at 30 degrees."""
        a = np.array([[1.0], [0.0]])
        theta = np.pi / 6
        b = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert smallest_principal_angle(a, b) == pytest.approx(theta)
        assert largest_principal_angle(a, b) == pytest.approx(theta)

    def test_angles_sorted_ascending(self, rng):
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((12, 4))
        angles = principal_angles(A, B)
        assert np.all(np.diff(angles) >= -1e-12)

    def test_symmetry(self, rng):
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((12, 4))
        np.testing.assert_allclose(
            principal_angles(A, B), principal_angles(B, A), atol=1e-9
        )

    def test_bounds(self, rng):
        A = rng.standard_normal((12, 4))
        B = rng.standard_normal((12, 4))
        angles = principal_angles(A, B)
        assert np.all(angles >= -1e-12)
        assert np.all(angles <= np.pi / 2 + 1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            principal_angles(rng.standard_normal((10, 2)), rng.standard_normal((8, 2)))

    def test_non_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            principal_angles(rng.standard_normal(10), rng.standard_normal((10, 2)))


class TestDesignMetric:
    def test_subspace_angle_is_largest_principal_angle(self, rng):
        A = rng.standard_normal((15, 5))
        B = rng.standard_normal((15, 5))
        assert subspace_angle(A, B) == pytest.approx(largest_principal_angle(A, B))

    def test_zero_for_identical_measurement_matrices(self, net14):
        H = reduced_measurement_matrix(net14)
        assert subspace_angle(H, H) == pytest.approx(0.0, abs=1e-9)

    def test_zero_for_uniform_scaling(self, net14):
        """H' = (1+η)H leaves the column space unchanged (paper's Case 2)."""
        H = reduced_measurement_matrix(net14)
        assert subspace_angle(H, 1.2 * H) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_partial_perturbation(self, net14):
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        assert subspace_angle(H, H_perturbed) > 0.01

    def test_smallest_angle_is_zero_for_partial_dfacts_coverage(self, net14):
        """With only 6 of 20 lines perturbable the column spaces always share
        directions — the reproduction note motivating the choice of metric."""
        H = reduced_measurement_matrix(net14)
        x = net14.reactances()
        for index in net14.dfacts_branches:
            x[index] *= 1.5
        H_perturbed = reduced_measurement_matrix(net14, x)
        assert smallest_principal_angle(H, H_perturbed) == pytest.approx(0.0, abs=1e-7)
        # dim(Col(H) ∩ Col(H')) is the number of zero principal angles.
        assert np.sum(principal_angles(H, H_perturbed) < 1e-8) >= 1

    def test_larger_perturbations_give_larger_angles(self, net14):
        H = reduced_measurement_matrix(net14)
        angles = []
        for factor in (1.1, 1.3, 1.5):
            x = net14.reactances()
            for index in net14.dfacts_branches:
                x[index] *= factor
            angles.append(subspace_angle(H, reduced_measurement_matrix(net14, x)))
        assert angles[0] < angles[1] < angles[2]


class TestOrthogonality:
    def test_orthogonal_complement_detected(self):
        A = np.eye(6)[:, :3]
        B = np.eye(6)[:, 3:]
        assert is_orthogonal_complement(A, B)

    def test_non_orthogonal_detected(self, rng):
        A = rng.standard_normal((8, 3))
        assert not is_orthogonal_complement(A, A)
