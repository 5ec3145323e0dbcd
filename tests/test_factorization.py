"""Tests for factorization building, sparse assembly and parameter accounting."""

import importlib

import numpy as np
import pytest

from messi import (
    Clustering,
    EmOptions,
    MessiFactorization,
    ParameterError,
    Subspace,
    assemble_sparse,
    best_fit_subspace,
    build_factorization,
    em_multi_restart,
    equal_budget_j,
    load_bundle,
    lookup,
    param_count,
    reconstruct,
    refit_step,
    save_bundle,
    svd_baseline_params,
    truncated_svd,
)
from messi.linalg import _blas_threads, _one_blas_thread, _set_blas_threads, orthonormality_residual
from oracles import dense_u


# Relative Frobenius tolerance of a lookup batch against reconstruct(f)[ids].
LOOKUP_RTOL = 1e-12


def make_clustering(pts, k, j, seed=0, restarts=4):
    return em_multi_restart(pts, k, j, EmOptions(restarts=restarts, seed=seed))


def planted_20x10(seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    basis0 = best_fit_subspace(rng.standard_normal((3, 10)), 3).basis
    basis1 = best_fit_subspace(rng.standard_normal((3, 10)), 3).basis
    coeffs = rng.uniform(-1, 1, (20, 3))
    pts = np.empty((20, 10))
    pts[:10] = coeffs[:10] @ basis0
    pts[10:] = coeffs[10:] @ basis1
    return pts + noise * rng.standard_normal((20, 10))


def mixed_dims_factorization():
    """30x8 rows over three clusters of dims (2, 0, 3): cluster 1 keeps no coefficients."""
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((30, 8))
    assignment = rng.permutation(np.repeat([0, 1, 2], 10))
    subs = (
        best_fit_subspace(pts[assignment == 0], 2),
        Subspace(np.empty((0, 8))),
        best_fit_subspace(pts[assignment == 2], 3),
    )
    clus = Clustering(
        k=3, assignment=assignment, subspaces=subs,
        cost=0.0, q=2.0, iterations=1, converged=True,
    )
    return build_factorization(pts, clus)


class TestBuildFactorization:
    def test_20x10_k2_j3_stores_120_values(self):
        pts = planted_20x10()
        fact = build_factorization(pts, make_clustering(pts, 2, 3))
        assert fact.n == 20 and fact.d == 10 and fact.k == 2
        assert sum(fact.block_sizes()) == 20
        assert fact.param_count() == 120  # 20*3 + 2*3*10

    def test_exact_data_reconstructs_exactly(self):
        pts = planted_20x10(noise=0.0)
        fact = build_factorization(pts, make_clustering(pts, 2, 3, restarts=8))
        recon = reconstruct(fact)
        assert np.max(np.abs(recon - pts)) <= 1e-9 * max(1.0, np.max(np.abs(pts)))

    def test_rows_reconstruct_to_their_projections(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((15, 6))
        clus = make_clustering(pts, 3, 2, seed=2)
        fact = build_factorization(pts, clus)
        recon = reconstruct(fact)
        for z in range(15):
            b = clus.subspaces[clus.assignment[z]].basis
            expected = b.T @ (b @ pts[z])
            np.testing.assert_allclose(recon[z], expected, rtol=1e-12, atol=1e-12)

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((10, 4))
        clus = make_clustering(pts, 2, 1)
        with pytest.raises(ParameterError):
            build_factorization(rng.standard_normal((11, 4)), clus)
        with pytest.raises(ParameterError, match="10x4 matrix, got 10x5"):
            build_factorization(rng.standard_normal((10, 5)), clus)

    def test_empty_cluster_yields_zero_row_block(self):
        pts = np.outer(np.arange(1.0, 6.0), [1.0, 0.0, 0.0])
        clus = Clustering(
            k=2,
            assignment=np.zeros(5, dtype=int),
            subspaces=(Subspace(np.array([[1.0, 0, 0]])), Subspace(np.array([[0.0, 1.0, 0]]))),
            cost=0.0,
            q=2.0,
            iterations=1,
            converged=True,
        )
        fact = build_factorization(pts, clus)
        assert fact.block_sizes() == (5, 0)
        assert fact.blocks[1].u.shape == (0, 1)
        # The empty cluster still contributes its basis parameters.
        assert fact.param_count() == 5 * 1 + 2 * 1 * 3

    def test_coefficients_are_products_with_the_fits_em_made(self):
        # Row counts and dims at which OpenBLAS rounds a product differently
        # for a row-major and a column-major basis; EM's fits are column-major.
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((2 + 5 + 100, 64))
        assignment = np.repeat([0, 1, 2], [2, 5, 100])
        subs = refit_step(pts, assignment, 3, [7, 8, 45])
        fact = build_factorization(pts, Clustering(k=3, assignment=assignment, subspaces=subs,
                                                   cost=0.0, iterations=0, converged=True))
        with _one_blas_thread:
            for b, s in zip(fact.blocks, subs):
                assert np.array_equal(b.u, pts[b.row_ids] @ s.basis.T)

    def test_values_identical_across_threads_and_blas_threads(self):
        # Large enough that OpenBLAS would split an unpinned product across its threads.
        saved = _blas_threads()
        if saved is None:
            pytest.skip("no hook to numpy's OpenBLAS thread count was found, so it cannot be set")
        a = np.random.default_rng(1).standard_normal((5000, 256))
        assignment = np.zeros(5000, dtype=np.int64)
        assignment[-50:] = 1
        subs = tuple(refit_step(a, assignment, 2, 100))
        clus = Clustering(k=2, assignment=assignment, subspaces=subs, cost=0.0, iterations=0,
                          converged=True)
        values = []
        try:
            for blas in (1, 2):
                _set_blas_threads(blas)
                for threads in (1, 2):
                    values.append(build_factorization(a, clus, threads=threads).values.tobytes())
        finally:
            _set_blas_threads(saved)
        assert all(v == values[0] for v in values[1:])


class TestPartitionChecks:
    @staticmethod
    def rebuild(f, **inputs):
        """A factorization from f's constructor inputs, with some of them replaced."""
        fields = dict(n=f.n, d=f.d, k=f.k, dims=f.dims, assignment=f.assignment,
                      values=f.values, v_stacked=f.v_stacked)
        return MessiFactorization(**{**fields, **inputs})

    def test_hand_built_copy_accepted(self):
        f = mixed_dims_factorization()
        g = self.rebuild(f, assignment=f.assignment.copy(), values=f.values.copy(),
                         v_stacked=f.v_stacked.copy())
        np.testing.assert_array_equal(g.positions, f.positions)
        for b, h in zip(f.blocks, g.blocks):
            np.testing.assert_array_equal(h.row_ids, b.row_ids)
            np.testing.assert_array_equal(h.u, b.u)
            np.testing.assert_array_equal(h.v, b.v)

    @pytest.mark.parametrize("bad_id", [-1, 3])
    def test_assignment_out_of_range_rejected(self, bad_id):
        f = mixed_dims_factorization()
        assignment = f.assignment.copy()
        assignment[f.blocks[0].row_ids[0]] = bad_id
        with pytest.raises(ParameterError, match="outside"):
            self.rebuild(f, assignment=assignment)

    def test_values_of_wrong_size_rejected(self):
        f = mixed_dims_factorization()
        with pytest.raises(ParameterError, match="values has shape"):
            self.rebuild(f, values=f.values[:-1])

    def test_v_stacked_of_wrong_shape_rejected(self):
        f = mixed_dims_factorization()
        with pytest.raises(ParameterError, match="v_stacked has shape"):
            self.rebuild(f, v_stacked=f.v_stacked[:-1])


class TestSingleCopy:
    """Every coefficient and basis row is stored once: blocks and the sparse layer are views."""

    @staticmethod
    def assert_single_copy(f):
        sa = assemble_sparse(f)
        assert sa.values is f.values and sa.v_stacked is f.v_stacked
        assert not f.values.flags.writeable and not f.v_stacked.flags.writeable
        for b in f.blocks:
            if b.u.size:
                assert np.shares_memory(sa.values, b.u)
            if b.v.size:
                assert np.shares_memory(sa.v_stacked, b.v)

    def test_built(self):
        self.assert_single_copy(mixed_dims_factorization())

    def test_loaded(self, tmp_path):
        save_bundle(mixed_dims_factorization(), tmp_path / "b")
        self.assert_single_copy(load_bundle(tmp_path / "b"))

    def test_bases_shared_from_clustering_to_factorization(self):
        pts = planted_20x10()
        clus = make_clustering(pts, 2, 3)
        fact = build_factorization(pts, clus)
        assert np.shares_memory(fact.v_stacked, clus.bases)
        assert not clus.bases.flags.writeable and clus.bases.shape == (6, 10)
        for s in clus.subspaces:
            assert s.basis.base is clus.bases

    def test_writable_basis_is_copied(self):
        arr = np.eye(4)[:2].copy()
        s = Subspace(arr)
        arr[0, 0] = 5.0
        assert not np.shares_memory(s.basis, arr)
        np.testing.assert_array_equal(s.basis, np.eye(4)[:2])
        read_only_copy = np.eye(4)[:2].copy()  # owns its memory, so it can be made writable
        read_only_copy.flags.writeable = False
        assert not np.shares_memory(Subspace(read_only_copy).basis, read_only_copy)
        read_only = np.eye(4)
        read_only.flags.writeable = False
        view = read_only[:2]  # a read-only, C-contiguous float64 view of a read-only array
        assert not np.shares_memory(Subspace(view).basis, read_only)


class TestCheckedOnce:
    """Each basis is checked for orthonormality once per point where it enters."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of orthonormality_residual, by the module each caller looks it up in."""
        calls = {"linalg": 0, "factorization": 0}
        for name in calls:
            module = importlib.import_module(f"messi.{name}")

            def counting(basis, name=name, fn=module.orthonormality_residual):
                calls[name] += 1
                return fn(basis)
            monkeypatch.setattr(module, "orthonormality_residual", counting)
        return calls

    def test_clustering_runs_no_check_and_build_one_per_block(self, calls):
        pts = planted_20x10()
        labels = np.repeat([0, 1], 10)
        subs = refit_step(pts, labels, 2, [3, 2])  # each fit's Subspace is checked
        checked = calls["linalg"]
        assert checked >= 2
        clus = Clustering(k=2, assignment=labels, subspaces=subs, cost=0.0, iterations=0,
                          converged=True)
        assert calls == {"linalg": checked, "factorization": 0}
        fact = build_factorization(pts, clus)
        assert calls == {"linalg": checked, "factorization": fact.k}

    def test_nan_residual_rejected(self):
        basis = np.eye(3)[:2]
        assert orthonormality_residual(basis) == 0.0
        assert orthonormality_residual(np.empty((0, 3))) == 0.0
        with_nan = basis.copy()
        with_nan[1, 2] = np.nan
        assert np.isnan(orthonormality_residual(with_nan))
        f = mixed_dims_factorization()
        v_stacked = f.v_stacked.copy()
        v_stacked[0, 0] = np.nan
        with pytest.raises(ParameterError, match="block 0 v rows are not orthonormal"):
            TestPartitionChecks.rebuild(f, v_stacked=v_stacked)


class TestSparseAssembly:
    def test_k1_is_dense(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((8, 5))
        fact = build_factorization(pts, make_clustering(pts, 1, 2))
        sa = assemble_sparse(fact)
        assert sa.shape == (8, 2)
        np.testing.assert_array_equal(sa.offsets, [0])
        np.testing.assert_array_equal(sa.row_widths(), np.full(8, 2))
        np.testing.assert_allclose(dense_u(sa), fact.blocks[0].u)

    def test_block_pattern_7x7(self):
        # Rows 3 and 5 (0-indexed) assigned to the first of two rank-3
        # subspaces: their nonzeros occupy the first 3 columns of U.
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((7, 7))
        assignment = np.array([1, 1, 1, 0, 1, 0, 1])
        subs = (
            best_fit_subspace(pts[assignment == 0], 3),
            best_fit_subspace(pts[assignment == 1], 3),
        )
        clus = Clustering(
            k=2, assignment=assignment, subspaces=subs,
            cost=0.0, q=2.0, iterations=1, converged=True,
        )
        fact = build_factorization(pts, clus)
        sa = assemble_sparse(fact)
        u = dense_u(sa)
        assert sa.shape == (7, 6)
        for z in (3, 5):
            assert sa.col_offsets[z] == 0
            assert np.count_nonzero(u[z, 3:]) == 0
        for z in (0, 1, 2, 4, 6):
            assert sa.col_offsets[z] == 3
            assert np.count_nonzero(u[z, :3]) == 0

    def test_product_matches_dense_multiply(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((20, 8))
        fact = build_factorization(pts, make_clustering(pts, 3, 2, seed=1))
        sa = assemble_sparse(fact)
        recon = reconstruct(fact)
        dense = dense_u(sa) @ sa.v_stacked
        assert np.max(np.abs(dense - recon)) <= 1e-9 * max(1.0, np.max(np.abs(recon)))
        assert np.max(np.abs(sa.product() - recon)) <= 1e-9 * max(1.0, np.max(np.abs(recon)))

    def test_nonzero_count(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((12, 6))
        fact = build_factorization(pts, make_clustering(pts, 2, 2, seed=3))
        sa = assemble_sparse(fact)
        sizes = fact.block_sizes()
        assert sa.values.size == sizes[0] * 2 + sizes[1] * 2
        assert int(sa.row_widths().sum()) == sa.values.size

    def test_nonuniform_dims_pattern(self):
        pts = planted_20x10()
        assignment = np.repeat([0, 1], 10)
        subs = (best_fit_subspace(pts[:10], 2), best_fit_subspace(pts[10:], 4))
        clus = Clustering(
            k=2, assignment=assignment, subspaces=subs,
            cost=0.0, q=2.0, iterations=1, converged=True,
        )
        fact = build_factorization(pts, clus)
        sa = assemble_sparse(fact)
        assert sa.total_dims == 6
        np.testing.assert_array_equal(sa.offsets, [0, 2])
        assert np.all(sa.row_widths()[:10] == 2)
        assert np.all(sa.row_widths()[10:] == 4)

    def test_zero_width_cluster(self):
        # Cluster 1 has dims 0, so it shares its column offset with cluster 2.
        fact = mixed_dims_factorization()
        sa = assemble_sparse(fact)
        np.testing.assert_array_equal(sa.offsets, [0, 2, 2])
        recon = reconstruct(fact)
        assert np.all(recon[fact.assignment == 1] == 0.0)
        scale = max(1.0, np.max(np.abs(recon)))
        assert np.max(np.abs(dense_u(sa) @ sa.v_stacked - recon)) <= 1e-9 * scale
        assert np.max(np.abs(sa.product() - recon)) <= 1e-9 * scale
        # Row-by-row reference: the scatter is exact, the product only reorders sums.
        u_ref = np.zeros(sa.shape)
        prod_ref = np.zeros_like(recon)
        for z in range(sa.n):
            run = sa.values[sa.row_starts[z] : sa.row_starts[z] + sa.row_widths()[z]]
            cols = slice(sa.col_offsets[z], sa.col_offsets[z] + run.size)
            u_ref[z, cols] = run
            prod_ref[z] = run @ sa.v_stacked[cols]
        np.testing.assert_array_equal(dense_u(sa), u_ref)
        np.testing.assert_allclose(sa.product(), prod_ref, rtol=1e-12, atol=1e-12)


class TestForwardReconstruct:
    def test_row_on_subspace_returned_exactly(self):
        pts = np.outer(np.arange(1.0, 7.0), [1.0, 0.0, 0.0])
        fact = build_factorization(pts, make_clustering(pts, 1, 1))
        for z in range(6):
            np.testing.assert_allclose(lookup(fact, [z])[0], pts[z], rtol=1e-12, atol=1e-12)

    def test_k1_matches_truncated_svd(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((14, 6))
        fact = build_factorization(pts, make_clustering(pts, 1, 3))
        svd_recon = truncated_svd(pts, 3).reconstruction()
        recon = reconstruct(fact)
        assert np.linalg.norm(recon - svd_recon) <= 1e-9 * np.linalg.norm(svd_recon)

    def test_lookup_agrees_with_sparse_product(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((10, 5))
        fact = build_factorization(pts, make_clustering(pts, 2, 2, seed=5))
        sa = assemble_sparse(fact)
        prod = sa.product()
        np.testing.assert_allclose(lookup(fact, np.arange(10)), prod, rtol=1e-12, atol=1e-12)

    def test_residual_equals_cost(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((25, 7))
        clus = make_clustering(pts, 3, 2, seed=6)
        fact = build_factorization(pts, clus)
        residual = float(np.sum((pts - reconstruct(fact)) ** 2))
        assert residual == pytest.approx(clus.cost, rel=1e-9)

    def test_index_out_of_range(self):
        pts = np.eye(3)
        fact = build_factorization(pts, make_clustering(pts, 1, 1))
        with pytest.raises(ParameterError):
            lookup(fact, [3])
        with pytest.raises(ParameterError):
            lookup(fact, [-1])


class TestLookup:
    @staticmethod
    def assert_matches_reconstruct(fact, ids):
        expected = reconstruct(fact)[ids]
        out = lookup(fact, ids)
        assert out.shape == expected.shape == (len(ids), fact.d)
        assert np.linalg.norm(out - expected) <= LOOKUP_RTOL * np.linalg.norm(expected)

    def test_unsorted_repeated_and_all_ids(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((40, 6))
        fact = build_factorization(pts, make_clustering(pts, 3, 2, seed=8))
        assert fact.k == 3 and min(fact.block_sizes()) > 0
        self.assert_matches_reconstruct(fact, rng.permutation(40))
        self.assert_matches_reconstruct(fact, np.array([7, 3, 7, 39, 0, 3, 3, 21]))
        self.assert_matches_reconstruct(fact, rng.integers(0, 40, size=100))
        self.assert_matches_reconstruct(fact, np.arange(40))

    def test_empty_cluster(self):
        pts = np.outer(np.arange(1.0, 6.0), [1.0, 0.0, 0.0])
        clus = Clustering(
            k=2,
            assignment=np.zeros(5, dtype=int),
            subspaces=(Subspace(np.array([[1.0, 0, 0]])), Subspace(np.array([[0.0, 1.0, 0]]))),
            cost=0.0,
            q=2.0,
            iterations=1,
            converged=True,
        )
        fact = build_factorization(pts, clus)
        assert fact.block_sizes() == (5, 0)
        self.assert_matches_reconstruct(fact, np.array([4, 0, 2, 2]))

    def test_nonuniform_dims_and_zero_dim_cluster(self):
        # Dims (2, 0, 3): the rows of the zero-dim cluster come back as zeros.
        fact = mixed_dims_factorization()
        self.assert_matches_reconstruct(fact, np.arange(30)[::-1])
        zero_rows = np.flatnonzero(fact.assignment == 1)
        np.testing.assert_array_equal(lookup(fact, zero_rows), np.zeros((10, 8)))

    def test_empty_batch(self):
        fact = mixed_dims_factorization()
        assert lookup(fact, np.array([], dtype=np.int64)).shape == (0, 8)
        assert lookup(fact, []).shape == (0, 8)

    def test_positions_invert_blocks(self):
        fact = mixed_dims_factorization()
        assert fact.positions.dtype == np.int64 and not fact.positions.flags.writeable
        for z in range(fact.n):
            assert fact.blocks[fact.assignment[z]].row_ids[fact.positions[z]] == z

    def test_bundle_round_trip_is_bit_exact(self, tmp_path):
        fact = mixed_dims_factorization()
        save_bundle(fact, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        ids = np.array([5, 29, 0, 5, 17, 12])
        np.testing.assert_array_equal(loaded.positions, fact.positions)
        np.testing.assert_array_equal(lookup(loaded, ids), lookup(fact, ids))

    def test_rejects_bad_ids(self):
        fact = mixed_dims_factorization()
        for ids in ([30], [-1], np.array([[0, 1]]), np.array([0.0, 1.0])):
            with pytest.raises(ParameterError):
                lookup(fact, ids)


class TestParamCounts:
    def test_golden_counts(self):
        assert param_count(20, 10, 2, [3, 3]) == 120
        assert param_count(120, 3, 3, [1, 1, 1]) == 129
        assert param_count(120, 3, 1, [2]) == 246
        assert svd_baseline_params(20, 10, 4) == 120

    def test_uniform_scalar_dims(self):
        assert param_count(20, 10, 2, 3) == 120

    def test_nonuniform_requires_sizes(self):
        with pytest.raises(ParameterError):
            param_count(20, 10, 2, [2, 4])
        assert param_count(20, 10, 2, [2, 4], cluster_sizes=[10, 10]) == 10 * 2 + 10 * 4 + 10 * 6

    def test_svd_baseline(self):
        assert svd_baseline_params(20, 10, 4) == 120
        assert svd_baseline_params(5, 7, 0) == 0
        assert svd_baseline_params(30522, 768, 384) == 12_015_360

    def test_matches_factorization_accounting(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((18, 6))
        fact = build_factorization(pts, make_clustering(pts, 3, 2, seed=7))
        assert fact.param_count() == param_count(
            18, 6, 3, fact.dims, cluster_sizes=fact.block_sizes()
        )


class TestEqualBudgetJ:
    def test_inverts_golden_counts(self):
        assert equal_budget_j(20, 10, 2, 120) == 3
        assert equal_budget_j(20, 10, 1, 120) == 4

    def test_bracketing(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(5, 500))
            d = int(rng.integers(2, 100))
            k = int(rng.integers(1, 9))
            budget = int(rng.integers(n + k * d, 4 * (n + k * d)))
            j = equal_budget_j(n, d, k, budget)
            assert param_count(n, d, k, j) <= budget < param_count(n, d, k, j + 1)

    def test_budget_too_small(self):
        with pytest.raises(ParameterError):
            equal_budget_j(20, 10, 2, 39)
