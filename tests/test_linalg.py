import numpy as np
import pytest

from mafkit import (
    InsufficientDataError,
    InvalidInputError,
    SingularMatrixError,
    TimeSeriesPanel,
    inverse_sqrt,
    lag1_diff_covariance,
    sample_covariance,
    sym_eig,
)
from mafkit.linalg import unit_direction

from conftest import random_spd


class TestSampleCovariance:
    def test_hand_computed_two_series(self):
        panel = np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        np.testing.assert_allclose(
            sample_covariance(panel), [[1.0, 2.0], [2.0, 4.0]], atol=1e-14
        )

    def test_constant_column_gives_zero_row_and_column(self, rng):
        values = rng.standard_normal((50, 3))
        values[:, 1] = 4.0  # exactly representable, so centering is exact
        cov = sample_covariance(values)
        assert np.all(cov[1, :] == 0.0)
        assert np.all(cov[:, 1] == 0.0)

    def test_whitened_panel_has_identity_covariance(self, rng):
        values = rng.standard_normal((200, 4)) @ random_spd(rng, 4)
        white = values @ inverse_sqrt(sample_covariance(values))
        np.testing.assert_allclose(sample_covariance(white), np.eye(4), atol=1e-10)

    def test_row_permutation_invariance(self, rng):
        values = rng.standard_normal((80, 3))
        shuffled = values[rng.permutation(80)]
        np.testing.assert_allclose(
            sample_covariance(values), sample_covariance(shuffled), atol=1e-12
        )

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            sample_covariance(np.ones((1, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_covariance(np.array([[1.0, np.nan], [2.0, 3.0]]))


class TestLag1DiffCovariance:
    def test_linear_column_contributes_zero(self, rng):
        values = rng.standard_normal((60, 2))
        values[:, 0] = 3.5 * np.arange(60) + 1.0
        cov = lag1_diff_covariance(values)
        assert abs(cov[0, 0]) < 1e-20

    def test_iid_noise_diagonal_near_two(self, rng):
        # Var(e(t) - e(t-1)) = 2 for unit-variance iid noise
        values = rng.standard_normal((200_000, 1))
        cov = lag1_diff_covariance(values)
        assert abs(cov[0, 0] - 2.0) < 0.03

    def test_matches_covariance_of_differenced_panel(self, rng):
        values = rng.standard_normal((40, 3))
        np.testing.assert_allclose(
            lag1_diff_covariance(values),
            sample_covariance(np.diff(values, axis=0)),
            atol=0,
        )

    def test_not_invariant_under_row_permutation(self, rng):
        values = np.cumsum(rng.standard_normal((100, 2)), axis=0)
        shuffled = values[rng.permutation(100)]
        diff = np.abs(lag1_diff_covariance(values) - lag1_diff_covariance(shuffled))
        assert diff.max() > 1e-3

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            lag1_diff_covariance(np.ones((2, 2)))


class TestSymEig:
    def test_diagonal_matrix(self):
        pairs = sym_eig(np.diag([3.0, 1.0]), order="descending")
        np.testing.assert_allclose(pairs.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(pairs.vectors), np.eye(2), atol=1e-14)

    def test_two_by_two_hand_solution(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 = 1 -> x = 3, 1
        pairs = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), order="descending")
        np.testing.assert_allclose(pairs.values, [3.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(pairs.vectors[:, 0], [s, s], atol=1e-14)
        np.testing.assert_allclose(np.abs(pairs.vectors[:, 1]), [s, s], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        m = random_spd(rng, 6)
        pairs = sym_eig(m, order="ascending")
        np.testing.assert_allclose(
            (pairs.vectors * pairs.values) @ pairs.vectors.T, m, atol=1e-8
        )
        np.testing.assert_allclose(
            pairs.vectors.T @ pairs.vectors, np.eye(6), atol=1e-10
        )
        assert np.all(np.diff(pairs.values) >= 0)

    def test_eigenvalue_sum_equals_trace(self, rng):
        m = random_spd(rng, 5)
        pairs = sym_eig(m)
        assert abs(pairs.values.sum() - np.trace(m)) < 1e-8

    def test_sign_convention(self, rng):
        m = random_spd(rng, 4)
        vectors = sym_eig(m).vectors
        for j in range(4):
            col = vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidInputError):
            sym_eig(np.eye(2), order="sideways")


class TestUnitDirection:
    def test_matches_per_vector_rule(self, rng):
        def reference(v):
            # normalize, then flip unless the largest-magnitude entry is positive
            v = v / np.linalg.norm(v)
            return v if v[np.argmax(np.abs(v))] >= 0 else -v

        m = rng.standard_normal((5, 4))
        columns = unit_direction(m)
        for j in range(4):
            np.testing.assert_allclose(columns[:, j], reference(m[:, j]), rtol=0, atol=1e-15)
            np.testing.assert_array_equal(unit_direction(m[:, j]), columns[:, j])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            unit_direction(np.array([[1.0, 0.0], [2.0, 0.0]]))


class TestInverseSqrt:
    def test_identity(self):
        np.testing.assert_allclose(inverse_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_powers(self):
        np.testing.assert_allclose(
            inverse_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-14
        )

    @pytest.mark.parametrize("shape", [(5, 5), (3, 5, 5)], ids=["matrix", "stack"])
    def test_sandwich_identity(self, rng, shape):
        # a stack of matrices is rooted matrix by matrix
        count = int(np.prod(shape[:-2]))
        m = np.stack([random_spd(rng, 5) for _ in range(count)]).reshape(shape)
        half = inverse_sqrt(m)
        assert half.shape == shape
        np.testing.assert_allclose(half @ m @ half, np.broadcast_to(np.eye(5), shape), atol=1e-8)

    def test_commutes_with_input(self, rng):
        m = random_spd(rng, 4)
        half = inverse_sqrt(m)
        assert np.abs(half @ m - m @ half).max() < 1e-8

    def test_singular_input_names_eigenvalue(self):
        m = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError, match="eigenvalue"):
            inverse_sqrt(m)


def test_panel_validation():
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(np.array([[1.0], [np.inf]]))
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(np.ones((3, 2)), labels=("a",))
    with pytest.raises(InvalidInputError):
        TimeSeriesPanel(np.ones((3, 1)), time=[0.0, 1.0, 1.0])
    panel = TimeSeriesPanel(np.ones((3, 2)), labels=("a", "b"), time=[0.0, 1.0, 2.5])
    assert panel.n == 3 and panel.p == 2
    assert panel.column_labels() == ("a", "b")
