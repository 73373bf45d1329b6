"""Tests for repro.mtd.subspace (principal angles and the design metric)."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from repro.estimation.bdd import BadDataDetector
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.exceptions import EstimationError
from repro.grid.cases.registry import load_case
from repro.grid.matrices import reduced_measurement_matrix
from repro.grid.network import PowerNetwork
from repro.mtd.effectiveness import AttackerSide
from repro.mtd.subspace import (
    FactoredMatrix,
    RankKPerturbation,
    is_orthogonal_complement,
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
        assert subspace_angle(a, b) == pytest.approx(theta)

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
        assert subspace_angle(A, B) == pytest.approx(_scipy_largest(A, B))

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


def _rotated_pair(rng, n_rows, width, angle):
    """Two bases whose largest principal angle is exactly ``angle``.

    ``B`` turns one direction of ``Col(A)`` by ``angle`` towards a direction
    orthogonal to it; both are then mixed by random invertible matrices so
    neither input is orthonormal.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n_rows, width + 1)))
    base, normal = q[:, :width], q[:, width]
    turned = base.copy()
    turned[:, 0] = np.cos(angle) * base[:, 0] + np.sin(angle) * normal
    mix_a = rng.standard_normal((width, width)) + 3.0 * np.eye(width)
    mix_b = rng.standard_normal((width, width)) + 3.0 * np.eye(width)
    return base @ mix_a, turned @ mix_b


def _scipy_largest(A, B):
    return float(scipy.linalg.subspace_angles(A, B).max())


class TestLargestAngleKernel:
    """The Gram-matrix kernel against scipy's SVD-based spectrum."""

    def test_agrees_with_scipy_on_unequal_widths(self, rng):
        for _ in range(60):
            n_rows = int(rng.integers(6, 40))
            width_a = int(rng.integers(1, n_rows))
            width_b = int(rng.integers(1, n_rows))
            A = rng.standard_normal((n_rows, width_a))
            B = rng.standard_normal((n_rows, width_b))
            expected = _scipy_largest(A, B)
            assert abs(subspace_angle(A, B) - expected) <= 1e-12
            assert abs(subspace_angle(B, A) - expected) <= 1e-12

    @pytest.mark.parametrize("angle", [1e-9, 1e-7, 1e-5, 1e-3, 1e-2])
    def test_agrees_with_scipy_on_near_identical_spaces(self, rng, angle):
        for width in (1, 4, 13):
            A, B = _rotated_pair(rng, 54, width, angle)
            gamma = subspace_angle(A, B)
            assert abs(gamma - _scipy_largest(A, B)) <= 1e-12
            assert abs(gamma - angle) <= 1e-12
            # A narrower space inside Col(B), as either argument.
            narrow = B[:, : (width + 1) // 2]
            for pair in ((A, narrow), (narrow, A)):
                assert abs(subspace_angle(*pair) - _scipy_largest(*pair)) <= 1e-12

    @pytest.mark.parametrize("angle", [0.8, 1.0, 1.3, 1.5])
    def test_agrees_with_scipy_beyond_a_quarter_turn(self, rng, angle):
        for width in (1, 4, 13):
            A, B = _rotated_pair(rng, 54, width, angle)
            gamma = subspace_angle(A, B)
            assert abs(gamma - _scipy_largest(A, B)) <= 1e-12
            assert abs(gamma - angle) <= 1e-12

    @pytest.mark.parametrize("offset", [1e-5, 1e-7])
    def test_exact_next_to_a_right_angle(self, rng, offset):
        """The cosine branch keeps its digits where a sine loses them.

        scipy reads about 2e-9 rad off at ``π/2 − 1e-7``, so the check here
        is against the constructed angle.
        """
        for width in (1, 4, 13):
            A, B = _rotated_pair(rng, 54, width, np.pi / 2 - offset)
            assert abs(subspace_angle(A, B) - (np.pi / 2 - offset)) <= 1e-12

    def test_rank_deficient_input_raises(self, rng):
        A = rng.standard_normal((20, 5))
        A[:, 4] = A[:, 1]
        B = rng.standard_normal((20, 5))
        with pytest.raises(ValueError, match="full-column-rank"):
            subspace_angle(A, B)
        with pytest.raises(ValueError, match="full-column-rank"):
            subspace_angle(B, A)

    def test_full_spectrum_stays_scipy(self, rng):
        A = rng.standard_normal((15, 5))
        B = rng.standard_normal((15, 4))
        expected = np.sort(scipy.linalg.subspace_angles(A, B))
        assert np.array_equal(principal_angles(A, B), expected)
        assert smallest_principal_angle(A, B) == expected[0]


def _rank_k_pair(network, x_post):
    """The attacker side of ``network`` at its nominal reactances and the
    post-perturbation model of ``x_post``."""
    side = AttackerSide.build(network, np.zeros(network.n_buses))
    model = LinearModel.from_measurement_system(
        MeasurementSystem(network, reactances=x_post)
    )
    return side, model


def _chain_case(name):
    """A side and its ``Δb`` for every branch of the rank-k chain."""
    if name == "radial":
        # D-FACTS on a radial branch only: its column lies in Col(H), so
        # R_E has no rows (r = 0).
        network = load_case("ieee14")
        radial = network.branch_between(6, 7).index
        network = PowerNetwork.from_components(
            network.buses,
            (replace(b, has_dfacts=b.index == radial) for b in network.branches),
            network.generators,
        )
    else:
        network = load_case(name.removesuffix("-zero"))
    side = AttackerSide.build(network, np.zeros(network.n_buses))
    x = side.base_reactances.copy()
    if not name.endswith("-zero"):
        x[side.dfacts] *= 1.0 + np.random.default_rng(29).uniform(-0.2, 0.2, side.dfacts.size)
    return side, side.susceptance_change(x)


class TestFactorizedSide:
    """``subspace_angle(RankKPerturbation)`` reads the angle from the side's
    ``k × k`` factors, and its residual map gives the noncentralities."""

    @pytest.mark.parametrize(
        "case", ["case4", "ieee14", "ieee30", "synthetic118", "ieee14-zero", "radial"]
    )
    def test_chain_matches_dense_references(self, case, capfd):
        """``Φ``, the lower triangle of ``YYᵀ``, the residual map and the
        angle against ``solve``/``@``/``eigvalsh`` references: case4's ``R``
        is ``3 × 4``, ``Δb = 0`` gives zero blocks and the radial side has
        ``r = 0``.  No BLAS or LAPACK routine reports an illegal argument."""
        side, scales = _chain_case(case)
        k, r = side.dfacts.size, side.residual_factor.shape[0]
        assert (side.angle_factor.shape[0] < k) == (case == "case4")
        assert (r == 0) == (case == "radial")
        a = np.eye(k) + scales[:, None] * side.coupling
        phi = np.linalg.solve(a.T, side.residual_factor.T).T * scales
        y = phi @ side.angle_factor.T
        gram = y @ y.T
        if r:
            residual_map = np.linalg.solve(np.linalg.cholesky(np.eye(r) + gram), phi)
            angle = float(np.arctan(np.sqrt(np.linalg.eigvalsh(gram)[-1])))
        else:
            residual_map, angle = phi, 0.0
        perturbation = RankKPerturbation(side, scales)
        chain_phi, chain_gram = perturbation._blocks
        assert chain_phi.shape == (r, k) and chain_gram.shape == (r, r)
        for actual, expected in (
            (chain_phi, phi),
            (np.tril(chain_gram), np.tril(gram)),
            (perturbation.residual_map, residual_map),
        ):
            np.testing.assert_allclose(
                actual, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max(initial=0.0)
            )
        assert not np.any(np.triu(chain_gram, 1))
        assert subspace_angle(perturbation) == pytest.approx(angle, rel=1e-14, abs=0.0)
        if case.endswith("-zero") or case == "radial":
            assert angle == 0.0 and not np.any(perturbation.residual_map)
        assert capfd.readouterr() == ("", "")

    def test_singular_change_raises(self):
        """``A = I + ΔV`` singular (here exactly): LAPACK's pivot failure is
        a :class:`numpy.linalg.LinAlgError`, as from ``np.linalg.solve``."""
        side = SimpleNamespace(
            coupling=np.ones((2, 2)), residual_factor=np.eye(2), angle_factor=np.eye(2)
        )
        perturbation = RankKPerturbation(side, np.array([-0.5, -0.5]))
        with pytest.raises(np.linalg.LinAlgError, match="Singular"):
            subspace_angle(perturbation)

    @pytest.mark.parametrize(
        "case, backend",
        [("ieee14", "dense"), ("ieee30", "dense"), ("synthetic300", "sparse")],
    )
    def test_model_form_agrees_with_array_form(self, case, backend):
        """The rank-k form against a measurement-space model of ``H′`` (on
        the backend its bus count picks) and the array form of the angle."""
        network = load_case(case)
        rng = np.random.default_rng(17)
        x = network.reactances()
        H = reduced_measurement_matrix(network, x)
        dfacts = np.array(network.dfacts_branches)
        biases = rng.standard_normal((12, H.shape[1]))
        for relative_change in (0.02, 0.2):
            x_post = x.copy()
            x_post[dfacts] *= 1.0 + rng.uniform(-relative_change, relative_change, dfacts.size)
            side, model = _rank_k_pair(network, x_post)
            assert model.backend == backend
            perturbation = RankKPerturbation(side, side.susceptance_change(x_post))
            expected = subspace_angle(H, reduced_measurement_matrix(network, x_post))
            assert abs(subspace_angle(perturbation) - expected) <= 1e-14
            # ‖L_c⁻¹Φg‖ is the residual norm of a = Hb, g = A_Dᵀb.
            rank_k = (side.incidence_t @ biases.T).T @ perturbation.residual_map.T
            measurement_space = model.attack_residuals(biases @ H.T)
            np.testing.assert_allclose(
                np.sum(rank_k**2, axis=1), np.sum(measurement_space**2, axis=1), rtol=1e-11
            )

    def test_rank_k_change_stands_alone(self, net14):
        side, _ = _rank_k_pair(net14, net14.reactances())
        perturbation = RankKPerturbation(side, np.zeros(side.dfacts.size))
        assert subspace_angle(perturbation) == 0.0
        assert not np.any(perturbation.residual_map)
        assert perturbation.residual_map is perturbation.residual_map
        with pytest.raises(TypeError):
            subspace_angle(perturbation, side.matrix)
        with pytest.raises(TypeError):
            subspace_angle(side.matrix)

    def test_branch_differences_must_match_the_perturbation(self, net14):
        side, _ = _rank_k_pair(net14, net14.reactances())
        perturbation = RankKPerturbation(side, np.full(side.dfacts.size, 0.1))
        detector = BadDataDetector(MeasurementSystem(net14))
        for shape in ((3, side.dfacts.size + 1), (side.dfacts.size,)):
            with pytest.raises(EstimationError, match="branch differences"):
                detector.detection_probabilities(np.ones(shape), perturbation)


class TestFactoredMatrix:
    """``subspace_angle(FactoredMatrix(H), ·)`` keeps the basis of ``H``."""

    @pytest.mark.parametrize(
        "case, backend", [("ieee14", "dense"), ("synthetic300", "sparse")]
    )
    def test_bit_identical_to_the_array_forms(self, case, backend):
        """The kept basis gives the array form's angle bit for bit; its
        residuals against the post-perturbation model give it to rounding."""
        network = load_case(case)
        rng = np.random.default_rng(23)
        x = network.reactances()
        H = reduced_measurement_matrix(network, x)
        factored = FactoredMatrix(H)
        dfacts = np.array(network.dfacts_branches)
        for relative_change in (0.02, 0.2):
            x_post = x.copy()
            x_post[dfacts] *= 1.0 + rng.uniform(-relative_change, relative_change, dfacts.size)
            H_post = reduced_measurement_matrix(network, x_post)
            expected = subspace_angle(H, H_post)
            assert subspace_angle(factored, H_post) == expected
            _, model = _rank_k_pair(network, x_post)
            assert model.backend == backend
            residuals = model.attack_residuals(factored.basis.T)
            sine_squared = np.linalg.eigvalsh(residuals @ residuals.T)[-1]
            assert abs(np.arcsin(np.sqrt(sine_squared)) - expected) <= 1e-12

    def test_rank_deficient_input_raises_on_first_use(self, rng):
        A = rng.standard_normal((20, 5))
        A[:, 4] = A[:, 1]
        B = rng.standard_normal((20, 5))
        factored = FactoredMatrix(A)
        for _ in range(2):
            with pytest.raises(ValueError, match="full-column-rank"):
                subspace_angle(factored, B)

    def test_matrix_and_basis_are_read_only(self, rng):
        A = rng.standard_normal((20, 5))
        factored = FactoredMatrix(A)
        basis = factored.basis
        assert factored.basis is basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(5), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(basis @ (basis.T @ A), A, rtol=0.0, atol=1e-13)
        for array in (factored.matrix, basis):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        assert A.flags.writeable


class TestOrthogonality:
    def test_orthogonal_complement_detected(self):
        A = np.eye(6)[:, :3]
        B = np.eye(6)[:, 3:]
        assert is_orthogonal_complement(A, B)

    def test_non_orthogonal_detected(self, rng):
        A = rng.standard_normal((8, 3))
        assert not is_orthogonal_complement(A, A)
