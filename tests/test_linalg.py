"""Tests for the linear-algebra substrate."""

import warnings

import numpy as np
import pytest

from messi import (
    InputError,
    ParameterError,
    Subspace,
    as_matrix,
    best_fit_subspace,
    distances_sq,
    truncated_svd,
)
from messi.linalg import CHUNK_ROWS
from oracles import gram_eig_tail, same_subspace


def test_as_matrix_widens_float32_exactly():
    a32 = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float32)
    m = as_matrix(a32)
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, a32.astype(np.float64))


def test_as_matrix_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        as_matrix(np.zeros(3))
    with pytest.raises(ParameterError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(InputError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(InputError):
        as_matrix([[1.0, np.inf]])
    late = np.ones((CHUNK_ROWS + 5, 2))
    late[-1, 1] = -np.inf  # past the first chunk of the finiteness check
    with pytest.raises(InputError, match="non-finite"):
        as_matrix(late)


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        m = np.diag([3.0, 2.0, 1.0])
        svd = truncated_svd(m, 2)
        np.testing.assert_allclose(svd.singular, [3.0, 2.0], atol=1e-12)
        residual = np.sum((m - svd.reconstruction()) ** 2)
        assert residual == pytest.approx(1.0, rel=1e-12)

    def test_factor_pair_shapes_and_size(self):
        # A 20x10 matrix at rank 4 stores 20*4 + 4*10 = 120 values.
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 10))
        svd = truncated_svd(m, 4)
        assert svd.left.shape == (20, 4)
        assert svd.right.shape == (4, 10)
        assert svd.left.size + svd.right.size == 120

    def test_residual_matches_gram_tail(self):
        # Frozen from the Gram eigenvalue oracle on the seed-3 8x5 instance.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 5))
        svd = truncated_svd(m, 3)
        residual = float(np.sum((m - svd.reconstruction()) ** 2))
        assert residual == pytest.approx(3.3220454895119533, rel=1e-9)
        assert residual == pytest.approx(gram_eig_tail(m, 3), rel=1e-9)

    def test_singular_values_nonincreasing_and_right_orthonormal(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((12, 7))
        svd = truncated_svd(m, 5)
        assert np.all(np.diff(svd.singular) <= 0)
        assert np.all(svd.singular >= 0)
        np.testing.assert_allclose(svd.right @ svd.right.T, np.eye(5), atol=1e-10)

    def test_rank_out_of_range(self):
        m = np.eye(3)
        with pytest.raises(ParameterError):
            truncated_svd(m, 0)
        with pytest.raises(ParameterError):
            truncated_svd(m, 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            truncated_svd([[np.nan, 0.0], [0.0, 1.0]], 1)

    @pytest.mark.parametrize(
        "shape,seed",
        [((5, 4), 0), ((20, 8), 1), ((50, 20), 2), ((13, 13), 3), ((6, 12), 4)],
    )
    def test_eckart_young_across_ranks(self, shape, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal(shape)
        for r in range(1, min(shape) + 1):
            svd = truncated_svd(m, r)
            residual = float(np.sum((m - svd.reconstruction()) ** 2))
            expected = gram_eig_tail(m, r)
            assert residual == pytest.approx(expected, rel=1e-8, abs=1e-8)


class TestBestFitSubspace:
    def test_points_on_x_axis(self):
        pts = np.array([[1.0, 0, 0], [2.0, 0, 0], [-3.0, 0, 0]])
        s = best_fit_subspace(pts, 1)
        assert same_subspace(s, Subspace(np.array([[1.0, 0, 0]])))
        assert float(np.sum(distances_sq(pts, s))) <= 1e-20

    def test_diagonal_spectrum(self):
        pts = np.diag([3.0, 2.0, 1.0])
        s = best_fit_subspace(pts, 2)
        assert same_subspace(s, Subspace(np.eye(3)[:2]))
        cost = float(np.sum(distances_sq(pts, s)))
        assert cost == pytest.approx(1.0, rel=1e-12)

    def test_cost_matches_gram_tail(self):
        # Frozen from the Gram eigenvalue oracle on the seed-11 50x6 instance.
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((50, 6))
        s = best_fit_subspace(pts, 2)
        cost = float(np.sum(distances_sq(pts, s)))
        assert cost == pytest.approx(137.2186974955613, rel=1e-9)
        assert cost == pytest.approx(gram_eig_tail(pts, 2), rel=1e-9)

    def test_j_larger_than_d_rejected(self):
        with pytest.raises(ParameterError):
            best_fit_subspace(np.eye(3), 4)

    def test_rank_deficient_padding(self):
        # 2 rows in 5-space fitted at dim 4: basis is padded but stays orthonormal
        # and contains the rows exactly.
        pts = np.array([[1.0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0]])
        s = best_fit_subspace(pts, 4)
        assert s.dim == 4
        assert float(np.sum(distances_sq(pts, s))) <= 1e-18

    def test_monotone_tails(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((30, 8))
        costs = [float(np.sum(distances_sq(pts, best_fit_subspace(pts, j)))) for j in range(9)]
        assert all(costs[j + 1] <= costs[j] + 1e-9 for j in range(8))
        assert costs[8] <= 1e-9

    @pytest.mark.parametrize("conditioning", ["random", "ill"])
    def test_gram_basis_matches_svd(self, conditioning):
        # The basis comes from eigh of the Gram matrix; it must span the same
        # subspace as the top right singular vectors, also when the singular
        # values fall from 1 to 1e-6.
        rng = np.random.default_rng(37)
        n, d, j = 40, 8, 3
        pts = rng.standard_normal((n, d))
        if conditioning == "ill":
            q1, _ = np.linalg.qr(rng.standard_normal((n, d)))
            q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
            pts = (q1 * np.logspace(0, -6, d)) @ q2.T
        s = best_fit_subspace(pts, j)
        _, _, vt = np.linalg.svd(pts)
        assert same_subspace(s, Subspace(vt[:j]), tol=1e-8)
        cost = float(np.sum(distances_sq(pts, s)))
        assert cost == pytest.approx(gram_eig_tail(pts, j), rel=1e-9)

    def test_full_dimension_is_identity(self):
        pts = np.random.default_rng(38).standard_normal((9, 4))
        s = best_fit_subspace(pts, 4)
        np.testing.assert_array_equal(s.basis, np.eye(4))
        assert np.all(distances_sq(pts, s) == 0.0)

    def test_zero_dim_subspace(self):
        pts = np.ones((4, 3))
        s = best_fit_subspace(pts, 0)
        assert s.dim == 0
        assert distances_sq(pts[:1], s)[0] == pytest.approx(3.0)

    @staticmethod
    def planted(n: int, seed: int) -> np.ndarray:
        """n rows near a 5-dim subspace of R^16, so the fit has a wide eigengap."""
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((16, 5)))[0].T
        return rng.standard_normal((n, 5)) @ basis + 0.01 * rng.standard_normal((n, 16))

    def test_rows_in_one_chunk_match_the_gathered_fit(self):
        pts = self.planted(3000, 40)
        rows = np.sort(np.random.default_rng(41).choice(3000, size=CHUNK_ROWS, replace=False))
        got = best_fit_subspace(pts, 5, rows)
        assert got.basis.tobytes() == best_fit_subspace(pts[rows], 5).basis.tobytes()

    def test_rows_over_several_chunks_span_the_gathered_fit(self):
        pts = self.planted(3 * CHUNK_ROWS, 42)
        rows = np.flatnonzero(np.random.default_rng(43).random(3 * CHUNK_ROWS) < 0.8)
        assert rows.size > 2 * CHUNK_ROWS
        got = best_fit_subspace(pts, 5, rows)
        assert same_subspace(got, best_fit_subspace(pts[rows], 5), tol=1e-12)
        assert same_subspace(best_fit_subspace(pts, 5), Subspace(truncated_svd(pts, 5).right), tol=1e-12)

    def test_nonfinite_row_rejected_only_when_gathered(self):
        pts = self.planted(CHUNK_ROWS + 10, 44)
        pts[CHUNK_ROWS + 5, 3] = np.inf
        with pytest.raises(InputError):
            best_fit_subspace(pts, 2, [0, 1, CHUNK_ROWS + 5])
        with pytest.raises(InputError):
            best_fit_subspace(pts, 2)
        assert best_fit_subspace(pts, 2, np.arange(CHUNK_ROWS)).dim == 2
        assert best_fit_subspace(pts, 2, []).dim == 2  # an empty list gathers no row

    @pytest.mark.parametrize("row", [CHUNK_ROWS - 1, CHUNK_ROWS], ids=["last-of-0", "first-of-1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
    def test_nonfinite_gram_rejected_at_a_chunk_boundary(self, row, value):
        # 1e160 is finite, but its square overflows: the Gram is checked, not the rows.
        pts = self.planted(2 * CHUNK_ROWS, 45)
        pts[row, 7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="non-finite entries, or entries whose squares"):
                best_fit_subspace(pts, 3, np.arange(pts.shape[0]))  # id row is at position row
            with pytest.raises(InputError):
                best_fit_subspace(pts, 3)
            outside = np.delete(np.arange(pts.shape[0]), row)
            got = best_fit_subspace(pts, 3, outside)
        assert got.basis.tobytes() == best_fit_subspace(pts[outside], 3).basis.tobytes()

    @pytest.mark.parametrize("rows", [
        [0, 10], [-1, 2], [[0, 1]], [0.5, 1.7, 2.2], np.array([True, False, True]), np.int64(1),
        np.array([2**63], dtype=np.uint64),
    ])
    def test_bad_row_ids_rejected(self, rows):
        with pytest.raises(ParameterError, match="row ids"):
            best_fit_subspace(np.ones((10, 3)), 1, rows)


class TestDistancesSq:
    def test_dimension_mismatch(self):
        s = Subspace(np.array([[1.0, 0.0]]))
        with pytest.raises(ParameterError):
            distances_sq(np.ones((2, 3)), s)


class TestSubspaceType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ParameterError):
            Subspace(np.array([[1.0, 1.0]]))
        with pytest.raises(ParameterError):
            Subspace(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_rejects_too_many_rows(self):
        with pytest.raises(ParameterError):
            Subspace(np.vstack([np.eye(2), [1.0, 0.0]]))

    def test_basis_is_immutable(self):
        s = Subspace(np.eye(2))
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_produced_subspaces_are_orthonormal(self):
        rng = np.random.default_rng(10)
        for j in (1, 3, 5):
            s = best_fit_subspace(rng.standard_normal((12, 6)), j)
            np.testing.assert_allclose(s.basis @ s.basis.T, np.eye(j), atol=1e-10)


@pytest.mark.parametrize("call, error, match", [
    (lambda: Subspace(np.zeros((1, 1, 2))), ParameterError, "basis must be 2-d"),
    (lambda: Subspace(np.array([[np.nan, 0.0]])), InputError, "non-finite"),
    (lambda: best_fit_subspace(np.eye(3), -1), ParameterError, "must be nonnegative, got -1"),
], ids=["subspace-3d", "subspace-nan", "fit-negative-j"])
def test_rejects_bad_bases_and_dims(call, error, match):
    with pytest.raises(error, match=match):
        call()
