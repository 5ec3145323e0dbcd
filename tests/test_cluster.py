"""Tests for the EM projective-clustering module."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import messi.cluster
from messi import (
    EmOptions,
    ParameterError,
    Subspace,
    SynthSpec,
    allocate_dims,
    best_fit_subspace,
    clustering_cost,
    em_multi_restart,
    em_run,
    equal_budget_j,
    generate_planted,
    rate_to_budget,
    refit_step,
)
from messi.cluster import INIT_METHODS, _assign_and_cost, _refit
from messi.linalg import CHUNK_ROWS, _blas_threads, _row_norms_sq, _set_blas_threads
from oracles import (
    SizeError,
    _iter_partitions,
    assign_step,
    best_dim_composition_cost,
    brute_force,
    canonical_partition,
    gram_eig_tail,
    pointwise_cost,
    reference_em_run,
    same_subspace,
)


def two_lines_instance(n_per=5, angle_deg=70.0, seed=0, noise=0.0):
    """Points on two lines through the origin in the plane z=0 of 3-space."""
    rng = np.random.default_rng(seed)
    theta = np.deg2rad(angle_deg)
    dir1 = np.array([1.0, 0.0, 0.0])
    dir2 = np.array([np.cos(theta), np.sin(theta), 0.0])
    t1 = rng.uniform(0.5, 2.0, n_per)
    t2 = rng.uniform(0.5, 2.0, n_per)
    pts = np.vstack([np.outer(t1, dir1), np.outer(t2, dir2)])
    if noise:
        pts = pts + noise * rng.standard_normal(pts.shape)
    labels = np.repeat([0, 1], n_per)
    return pts, labels


class TestClusteringCost:
    def test_zero_on_contained_points(self):
        pts, labels = two_lines_instance()
        subs = [
            Subspace(np.array([[1.0, 0, 0]])),
            Subspace(np.array([[np.cos(np.deg2rad(70)), np.sin(np.deg2rad(70)), 0.0]])),
        ]
        assert clustering_cost(pts, labels, subs) <= 1e-12

    def test_unit_distance(self):
        pts = np.array([[0.0, 0.0, 1.0]])
        subs = [Subspace(np.eye(3)[:2])]
        assert clustering_cost(pts, [0], subs) == pytest.approx(1.0)

    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((15, 4))
        subs = [best_fit_subspace(rng.standard_normal((6, 4)), 2) for _ in range(3)]
        labels = rng.integers(0, 3, size=15)
        got = clustering_cost(pts, labels, subs)
        assert got == pytest.approx(pointwise_cost(pts, labels, subs), rel=1e-10)

    def test_multi_chunk_matches_pointwise_oracle(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((3000, 16))
        labels = rng.integers(0, 3, size=3000)
        labels[: CHUNK_ROWS + 1] = 0  # cluster 0 spans two chunks
        subs = refit_step(pts, labels, 3, 4)
        got = clustering_cost(pts, labels, subs)
        assert got == pytest.approx(pointwise_cost(pts, labels, subs), rel=1e-10)

    def test_invalid_ids(self):
        pts = np.eye(3)
        subs = [Subspace(np.eye(3)[:1])]
        with pytest.raises(ParameterError):
            clustering_cost(pts, [0, 1, 0], subs)
        with pytest.raises(ParameterError):
            clustering_cost(pts, [0, 0], subs)


class TestAssignStep:
    def test_single_subspace(self):
        pts = np.random.default_rng(1).standard_normal((7, 3))
        assert np.all(assign_step(pts, [Subspace(np.eye(3)[:1])]) == 0)

    def test_points_on_second_subspace(self):
        pts = np.outer(np.arange(1.0, 5.0), np.array([0.0, 1.0, 0.0]))
        subs = [Subspace(np.array([[1.0, 0, 0]])), Subspace(np.array([[0.0, 1.0, 0]]))]
        assert np.all(assign_step(pts, subs) == 1)

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[1.0, 1.0]])
        subs = [Subspace(np.array([[1.0, 0.0]])), Subspace(np.array([[0.0, 1.0]]))]
        assert assign_step(pts, subs)[0] == 0

    def test_never_increases_cost(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((20, 5))
        subs = [best_fit_subspace(rng.standard_normal((5, 5)), 2) for _ in range(3)]
        labels = rng.integers(0, 3, size=20)
        before = clustering_cost(pts, labels, subs)
        after = clustering_cost(pts, assign_step(pts, subs), subs)
        assert after <= before + 1e-12 * max(before, 1.0)


class TestRefitStep:
    def test_single_cluster_reduces_to_best_fit(self):
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((12, 4))
        subs = refit_step(pts, np.zeros(12, dtype=int), 1, 2)
        assert same_subspace(subs[0], best_fit_subspace(pts, 2))

    def test_planted_lines_recovered(self):
        pts, labels = two_lines_instance()
        subs = refit_step(pts, labels, 2, 1)
        assert clustering_cost(pts, labels, subs) <= 1e-12

    def test_per_cluster_cost_matches_gram_tail(self):
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((24, 5))
        labels = rng.integers(0, 3, size=24)
        subs = refit_step(pts, labels, 3, 2)
        for c in range(3):
            block = pts[labels == c]
            got = clustering_cost(block, np.zeros(len(block), dtype=int), [subs[c]])
            assert got == pytest.approx(gram_eig_tail(block, 2), rel=1e-9, abs=1e-12)

    def test_never_increases_cost(self):
        rng = np.random.default_rng(16)
        pts = rng.standard_normal((18, 4))
        labels = rng.integers(0, 2, size=18)
        subs_before = [best_fit_subspace(rng.standard_normal((4, 4)), 2) for _ in range(2)]
        before = clustering_cost(pts, labels, subs_before)
        after = clustering_cost(pts, labels, refit_step(pts, labels, 2, 2))
        assert after <= before + 1e-12 * max(before, 1.0)

    def test_empty_cluster_healed(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((10, 3))
        labels = np.zeros(10, dtype=int)  # cluster 1 empty
        subs = refit_step(pts, labels, 2, 1)
        assert len(subs) == 2
        assert subs[1].dim == 1
        np.testing.assert_allclose(subs[1].basis @ subs[1].basis.T, np.eye(1), atol=1e-10)

    def test_several_empty_clusters_get_distinct_seeds(self):
        rng = np.random.default_rng(34)
        pts = rng.standard_normal((12, 4))
        labels = np.zeros(12, dtype=int)  # clusters 1..3 empty
        subs = refit_step(pts, labels, 4, 1)
        assert all(s.dim == 1 for s in subs)
        # Heals consume distinct farthest rows, so the seeded lines differ.
        assert not same_subspace(subs[1], subs[2])

    def test_j_out_of_range(self):
        with pytest.raises(ParameterError):
            refit_step(np.eye(3), [0, 0, 0], 1, 4)
        with pytest.raises(ParameterError):
            refit_step(np.eye(3), [0, 1, 0], 2, [1, 4])
        with pytest.raises(ParameterError):
            refit_step(np.eye(3), [0, 1, 0], 2, [1])

    def test_per_cluster_dims_match_private_refit(self):
        rng = np.random.default_rng(39)
        pts = rng.standard_normal((30, 6))
        labels = rng.integers(0, 3, size=30)
        dims = [1, 3, 6]
        got = refit_step(pts, labels, 3, dims)
        want = _refit(pts, labels, dims)
        assert [s.dim for s in got] == dims
        for s, w in zip(got, want):
            np.testing.assert_array_equal(s.basis, w.basis)


class TestEmRun:
    def test_planted_init_converges_immediately(self):
        pts, labels = two_lines_instance()
        opts = EmOptions(seed=0)
        result = em_run(pts, 2, 1, opts, initial_assignment=labels)
        assert result.iterations == 1
        assert result.converged
        assert result.cost <= 1e-12

    def test_k1_cost_is_svd_tail_for_any_seed(self):
        rng = np.random.default_rng(18)
        pts = rng.standard_normal((25, 6))
        expected = gram_eig_tail(pts, 2)
        for seed in (0, 1, 99):
            for init in ("random-partition", "sampled-rows"):
                result = em_run(pts, 1, 2, EmOptions(seed=seed, init=init))
                assert result.cost == pytest.approx(expected, rel=1e-9)

    def test_matches_brute_force_when_partition_optimal(self):
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((10, 3))
        optimum = brute_force(pts, 2, 1)
        hits = 0
        for seed in range(8):
            result = em_run(pts, 2, 1, EmOptions(seed=seed))
            assert result.cost >= optimum.cost - 1e-9 * (1 + optimum.cost)
            if canonical_partition(result.assignment) == canonical_partition(optimum.assignment):
                hits += 1
                assert result.cost == pytest.approx(optimum.cost, rel=1e-9)
        assert hits >= 1  # local search finds the optimum from some starts

    def test_cost_history_nonincreasing(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            pts = rng.standard_normal((40, 6))
            result = em_run(pts, 3, 2, EmOptions(seed=seed))
            h = result.cost_history
            assert all(h[i + 1] <= h[i] * (1 + 1e-12) + 1e-15 for i in range(len(h) - 1))
            assert result.cost == h[-1]

    @pytest.mark.parametrize("init", ["random-partition", "sampled-rows"])
    def test_per_cluster_dims(self, init):
        rng = np.random.default_rng(40)
        pts = rng.standard_normal((60, 8))
        dims = [1, 4, 2]
        for seed in range(4):
            result = em_run(pts, 3, dims, EmOptions(seed=seed, init=init))
            assert [s.dim for s in result.subspaces] == dims
            h = result.cost_history
            assert all(h[i + 1] <= h[i] * (1 + 1e-12) + 1e-15 for i in range(len(h) - 1))
            assert result.cost == pytest.approx(
                clustering_cost(pts, result.assignment, result.subspaces), rel=1e-10)

    def test_stepwise_monotonicity(self):
        # Cost never increases after an assign step or a refit step.
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((30, 5))
        labels = rng.integers(0, 3, size=30)
        subs = refit_step(pts, labels, 3, 2)
        cost = clustering_cost(pts, labels, subs)
        for _ in range(6):
            labels = assign_step(pts, subs)
            c1 = clustering_cost(pts, labels, subs)
            assert c1 <= cost * (1 + 1e-12) + 1e-15
            subs = refit_step(pts, labels, 3, 2)
            c2 = clustering_cost(pts, labels, subs)
            assert c2 <= c1 * (1 + 1e-12) + 1e-15
            cost = c2

    def test_nearest_subspace_fixpoint_at_convergence(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((35, 4))
        result = em_run(pts, 3, 1, EmOptions(seed=4))
        assert result.converged
        np.testing.assert_array_equal(assign_step(pts, result.subspaces), result.assignment)

    def test_recomputed_cost_matches(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((30, 5))
        result = em_run(pts, 2, 2, EmOptions(seed=3))
        recomputed = clustering_cost(pts, result.assignment, result.subspaces)
        assert result.cost == pytest.approx(recomputed, rel=1e-9)

    def test_wide_matrix_with_small_clusters(self):
        # d > n forces rank-deficient per-cluster fits; EM must still descend.
        rng = np.random.default_rng(36)
        pts = rng.standard_normal((10, 20))
        for init in ("random-partition", "sampled-rows"):
            result = em_run(pts, 3, 4, EmOptions(seed=1, init=init))
            h = result.cost_history
            assert all(h[i + 1] <= h[i] * (1 + 1e-12) + 1e-15 for i in range(len(h) - 1))
            for s in result.subspaces:
                np.testing.assert_allclose(s.basis @ s.basis.T, np.eye(4), atol=1e-10)

    def test_fused_pass_matches_clustering_cost(self):
        rng = np.random.default_rng(40)
        pts = rng.standard_normal((50, 6))
        subs = [best_fit_subspace(rng.standard_normal((8, 6)), 2) for _ in range(4)]
        assignment, cost = _assign_and_cost(pts, _row_norms_sq(pts), subs)
        np.testing.assert_array_equal(assignment, assign_step(pts, subs))
        assert cost == pytest.approx(clustering_cost(pts, assignment, subs), rel=1e-12)

    def test_full_dimension_costs_exactly_zero(self):
        # j == d: every subspace is all of R^d, so no rounding may show up
        # in the cost history (criterion 3 allows only 1e-15 absolute slack).
        pts = np.random.default_rng(41).standard_normal((368, 2))
        for init in ("random-partition", "sampled-rows"):
            result = em_run(pts, 8, 2, EmOptions(seed=2066, init=init))
            assert all(c == 0.0 for c in result.cost_history)

    def test_parameter_errors(self):
        pts = np.eye(3)
        with pytest.raises(ParameterError):
            em_run(pts, 4, 1, EmOptions())  # n < k
        with pytest.raises(ParameterError):
            em_run(pts, 1, 4, EmOptions())  # j > d

    def test_invalid_warm_start_rejected(self):
        pts = np.random.default_rng(35).standard_normal((6, 3))
        with pytest.raises(ParameterError):
            em_run(pts, 2, 1, EmOptions(), initial_assignment=[0, 1, 2, 0, 1, 2])
        with pytest.raises(ParameterError):
            em_run(pts, 2, 1, EmOptions(), initial_assignment=[0, 1])


class TestEmMultiRestart:
    def test_single_restart_equals_em_run(self):
        rng = np.random.default_rng(26)
        pts = rng.standard_normal((20, 4))
        opts = EmOptions(restarts=1, seed=7)
        a = em_multi_restart(pts, 2, 1, opts)
        b = em_run(pts, 2, 1, opts, restart_index=0)
        assert a.cost == b.cost
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(27)
        pts = rng.standard_normal((16, 3))
        costs = []
        for restarts in (1, 4, 16):
            opts = EmOptions(restarts=restarts, seed=11)
            costs.append(em_multi_restart(pts, 2, 1, opts).cost)
        assert costs[1] <= costs[0] and costs[2] <= costs[1]

    def test_per_cluster_dims(self):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((60, 8))
        dims = (3, 1)
        opts = EmOptions(restarts=4, seed=2)
        result = em_multi_restart(pts, 2, dims, opts, threads=2)
        assert [s.dim for s in result.subspaces] == list(dims)
        h = result.cost_history
        assert all(h[i + 1] <= h[i] * (1 + 1e-12) + 1e-15 for i in range(len(h) - 1))
        assert result.cost == min(em_run(pts, 2, dims, opts, i).cost for i in range(4))

    def test_deterministic_across_runs_and_threads(self):
        rng = np.random.default_rng(28)
        pts = rng.standard_normal((60, 8))
        opts = EmOptions(restarts=6, seed=5)
        results = [em_multi_restart(pts, 3, 2, opts, threads=t) for t in (1, 1, 4)]
        for other in results[1:]:
            assert other.cost == results[0].cost
            np.testing.assert_array_equal(other.assignment, results[0].assignment)
            assert other.cost_history == results[0].cost_history


class TestThreadBudget:
    def test_one_restart_identical_across_threads(self):
        rng = np.random.default_rng(29)
        pts = rng.standard_normal((3 * CHUNK_ROWS + 100, 12))
        opts = EmOptions(restarts=1, max_iters=6, seed=3)
        results = [em_multi_restart(pts, 3, 2, opts, threads=t) for t in (1, 2, 4)]
        for other in results[1:]:
            assert other.cost == results[0].cost
            assert other.cost_history == results[0].cost_history
            np.testing.assert_array_equal(other.assignment, results[0].assignment)
            for s, s0 in zip(other.subspaces, results[0].subspaces):
                np.testing.assert_array_equal(s.basis, s0.basis)


def crit6_matrix():
    """The criterion-6 matrix: 2000x64 near 4 planted 8-dim subspaces."""
    spec = SynthSpec(n=2000, d=64, k_true=4, j_true=8, noise_sigma=0.01, spread=1.0, seed=13)
    return generate_planted(spec)[0]


CRIT6_OPTIONS = EmOptions(restarts=8, max_iters=100, seed=17)
CRIT6_J_AT_RATE_06 = 22  # equal_budget_j for k=4 at compression rate 0.6


def assert_same_bits(got, want):
    """Assignment, every basis, cost, cost_history, iterations and converged, byte for byte."""
    assert got.assignment.tobytes() == want.assignment.tobytes()
    assert [s.basis.tobytes() for s in got.subspaces] == [s.basis.tobytes() for s in want.subspaces]
    assert (np.array([got.cost, *got.cost_history]).tobytes()
            == np.array([want.cost, *want.cost_history]).tobytes())
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


def reuse_cases():
    """(id, em_run args, em_run kwargs, whether the reference loop heals an empty cluster)."""
    a = crit6_matrix()
    cases = [(f"crit6-restart{i}", (a, 4, CRIT6_J_AT_RATE_06, CRIT6_OPTIONS, i), {}, False)
             for i in range(4)]
    cases.append(("sampled-rows", (a, 4, CRIT6_J_AT_RATE_06,
                                   EmOptions(seed=17, init="sampled-rows"), 0), {}, False))
    spec = SynthSpec(n=2 * CHUNK_ROWS + 300, d=12, k_true=3, j_true=2, noise_sigma=0.3,
                     spread=1.0, seed=5)
    planted, labels = generate_planted(spec)
    cases.append(("planted-init", (planted, 3, 2, EmOptions(seed=1)),
                  {"initial_assignment": labels}, False))
    pts = np.random.default_rng(43).standard_normal((300, 8))
    cases.append(("per-cluster-dims", (pts, 3, [2, 3, 1], EmOptions(seed=3)), {}, False))
    # Rows near the x and y axes, plus two rows on the z axis that clusters 2
    # and 3 are healed onto. Both heals give the z axis, so cluster 2 wins the
    # tie for both rows and cluster 3 enters the loop empty after cluster 0 changed.
    rng = np.random.default_rng(0)
    x = np.column_stack([rng.uniform(5, 8, 10), 0.1 * rng.standard_normal((10, 2))])
    y = np.column_stack([0.1 * rng.standard_normal(10), rng.uniform(5, 8, 10),
                         0.1 * rng.standard_normal(10)])
    axes = np.vstack([x, y, [[0.0, 0.0, 5.0], [0.0, 0.0, 10.0]]])
    cases.append(("empty-cluster", (axes, 4, 1, EmOptions(seed=0)),
                  {"initial_assignment": [0] * 10 + [1] * 10 + [0, 0]}, True))
    return cases


class TestReuse:
    """em_run keeps unchanged fits and distance columns, and that changes no bit."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", reuse_cases(), ids=lambda case: case[0])
    def test_matches_reference_loop(self, case, threads):
        _, args, kwargs, heals = case
        want, healed = reference_em_run(*args, **kwargs, threads=threads)
        assert (healed > 0) == heals
        assert_same_bits(em_run(*args, **kwargs, threads=threads), want)

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of best_fit_subspace and _distances_sq made through the cluster module."""
        counts = {"fits": 0, "distances": 0}

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(messi.cluster, "best_fit_subspace",
                            counting("fits", messi.cluster.best_fit_subspace))
        monkeypatch.setattr(messi.cluster, "_distances_sq",
                            counting("distances", messi.cluster._distances_sq))
        return counts

    def test_planted_partition_fits_once(self, counts):
        pts, labels = two_lines_instance()
        result = em_run(pts, 2, 1, EmOptions(seed=0), initial_assignment=labels)
        assert result.iterations == 1 and result.converged
        assert counts == {"fits": 2, "distances": 2}

    def test_crit6_cell_saves_fits(self, counts):
        a = crit6_matrix()
        k = 4
        results = [em_run(a, k, CRIT6_J_AT_RATE_06, CRIT6_OPTIONS, i) for i in range(8)]
        without_reuse = sum((r.iterations + 1) * k for r in results)
        assert counts["fits"] < without_reuse
        assert counts["distances"] < without_reuse  # 2000 rows: one chunk per pass


class TestOneRestartForK1:
    @pytest.mark.parametrize("init", INIT_METHODS)
    def test_k1_runs_restart_zero_once(self, init, monkeypatch):
        a = crit6_matrix()
        n, d = a.shape
        opts = EmOptions(restarts=8, max_iters=100, seed=17, init=init)
        real_em_run = messi.cluster.em_run
        for rate in (0.3, 0.5, 0.6):
            j = equal_budget_j(n, d, 1, rate_to_budget(rate, n, d))
            runs = [real_em_run(a, 1, j, opts, i) for i in range(opts.restarts)]
            # Every restart ends on the same cost, so restart 0 wins the tie.
            assert all(r.cost == runs[0].cost for r in runs)
            calls = []

            def counted(*args, **kwargs):
                calls.append(args[4] if len(args) > 4 else 0)
                return real_em_run(*args, **kwargs)

            monkeypatch.setattr(messi.cluster, "em_run", counted)
            got = em_multi_restart(a, 1, j, opts, threads=2)
            monkeypatch.setattr(messi.cluster, "em_run", real_em_run)
            assert calls == [0]
            assert_same_bits(got, runs[0])


@pytest.fixture
def blas_at_two_threads(monkeypatch):
    """BLAS set to 2 threads through the hook; yields the counts seen inside fits."""
    saved = _blas_threads()
    if saved is None:
        pytest.skip("no hook to numpy's OpenBLAS thread count was found")
    seen = []
    real_fit = messi.cluster.best_fit_subspace

    def spy(points, j, *args):
        seen.append(_blas_threads())
        return real_fit(points, j, *args)

    monkeypatch.setattr(messi.cluster, "best_fit_subspace", spy)
    _set_blas_threads(2)
    try:
        yield seen
    finally:
        _set_blas_threads(saved)


class TestBlasPin:
    def test_restored_after_return(self, blas_at_two_threads):
        pts = np.random.default_rng(30).standard_normal((50, 6))
        em_multi_restart(pts, 2, 2, EmOptions(restarts=3, seed=1), threads=2)
        em_run(pts, 2, 2, EmOptions(seed=1))
        assert blas_at_two_threads and set(blas_at_two_threads) == {1}
        assert _blas_threads() == 2

    def test_restored_after_error_inside_em(self, blas_at_two_threads, monkeypatch):
        def failing_fit(points, j, *args):
            blas_at_two_threads.append(_blas_threads())
            raise ParameterError("fit failed")

        monkeypatch.setattr(messi.cluster, "best_fit_subspace", failing_fit)
        pts = np.random.default_rng(31).standard_normal((50, 6))
        with pytest.raises(ParameterError, match="fit failed"):
            em_multi_restart(pts, 2, 2, EmOptions(restarts=4, seed=1), threads=2)
        assert blas_at_two_threads and set(blas_at_two_threads) == {1}
        assert _blas_threads() == 2

    def test_restored_after_concurrent_callers(self, blas_at_two_threads):
        pts = np.random.default_rng(32).standard_normal((80, 6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda i: em_run(pts, 3, 2, EmOptions(seed=i)),
                                        range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        assert set(blas_at_two_threads) == {1}
        assert _blas_threads() == 2


class TestBruteForce:
    def test_two_orthogonal_lines(self):
        t = np.arange(1.0, 5.0)
        pts = np.vstack([np.outer(t, [1.0, 0.0]), np.outer(t, [0.0, 1.0])])
        result = brute_force(pts, 2, 1)
        assert result.cost <= 1e-24
        expected = canonical_partition([0, 0, 0, 0, 1, 1, 1, 1])
        assert canonical_partition(result.assignment) == expected

    def test_k1_equals_best_fit(self):
        rng = np.random.default_rng(29)
        pts = rng.standard_normal((30, 4))
        result = brute_force(pts, 1, 2)
        assert result.cost == pytest.approx(gram_eig_tail(pts, 2), rel=1e-9)

    def test_dominates_em(self):
        rng = np.random.default_rng(30)
        pts = rng.standard_normal((8, 3))
        optimum = brute_force(pts, 2, 1)
        for seed in range(100):
            em = em_run(pts, 2, 1, EmOptions(seed=seed))
            assert optimum.cost <= em.cost + 1e-9 * (1 + em.cost)

    def test_guard_on_instance_size(self):
        with pytest.raises(SizeError):
            brute_force(np.random.default_rng(0).standard_normal((13, 2)), 4, 1)

    def test_optimum_monotone_in_k(self):
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((7, 3))
        costs = [brute_force(pts, k, 1).cost for k in (1, 2, 3)]
        assert costs[1] <= costs[0] + 1e-12
        assert costs[2] <= costs[1] + 1e-12

    def test_partition_enumeration_counts(self):
        # Partitions into at most k blocks: Bell-style counts for small n.
        assert sum(1 for _ in _iter_partitions(3, 2)) == 4
        assert sum(1 for _ in _iter_partitions(4, 2)) == 8
        assert sum(1 for _ in _iter_partitions(4, 3)) == 14
        assert sum(1 for _ in _iter_partitions(4, 4)) == 15

    def test_more_clusters_than_rows(self):
        # k > n leaves clusters empty; the optimum is still well defined.
        rng = np.random.default_rng(33)
        pts = rng.standard_normal((3, 2))
        result = brute_force(pts, 4, 1)
        assert result.k == 4 and len(result.subspaces) == 4
        assert result.cost <= brute_force(pts, 3, 1).cost + 1e-12


class TestAllocateDims:
    def test_identical_spectra_split_evenly(self):
        block = np.diag([3.0, 2.0, 1.0])
        pts = np.vstack([block, block])
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert allocate_dims(pts, labels, 4, k=2) == [2, 2]

    def test_rank_one_vs_rank_three(self):
        c0 = np.outer([1.0, 2.0, 3.0], [1.0, 0, 0, 0])
        c1 = np.array([[0.0, 3.0, 0, 0], [0.0, 0, 2.0, 0], [0.0, 0, 0, 1.0]])
        pts = np.vstack([c0, c1])
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert allocate_dims(pts, labels, 4, k=2) == [1, 3]

    def test_matches_exhaustive_composition_search(self):
        rng = np.random.default_rng(32)
        pts = rng.standard_normal((21, 5))
        labels = rng.integers(0, 3, size=21)
        for total in (4, 6, 9):
            dims = allocate_dims(pts, labels, total, k=3)
            assert sum(dims) == total
            cost = sum(gram_eig_tail(pts[labels == c], dims[c]) for c in range(3))
            best = best_dim_composition_cost(pts, labels, 3, total)
            assert cost == pytest.approx(best, rel=1e-9, abs=1e-12)

    def test_bounds(self):
        pts = np.eye(3)
        labels = np.array([0, 1, 1])
        with pytest.raises(ParameterError):
            allocate_dims(pts, labels, 1, k=2)
        with pytest.raises(ParameterError):
            allocate_dims(pts, labels, 7, k=2)

    def test_respects_ambient_cap(self):
        # One dominant cluster cannot absorb more than d dims.
        pts = np.vstack([np.diag([5.0, 4.0]), np.zeros((2, 2))])
        labels = np.array([0, 0, 1, 1])
        assert allocate_dims(pts, labels, 4, k=2) == [2, 2]


class TestClusteringType:
    def test_invariants_enforced(self):
        from messi import Clustering

        subs = (Subspace(np.eye(3)[:1]),)
        with pytest.raises(ParameterError):
            Clustering(k=2, assignment=[0, 0], subspaces=subs, cost=0.0, q=2.0,
                       iterations=0, converged=True)  # k != len(subspaces)
        with pytest.raises(ParameterError):
            Clustering(k=1, assignment=[0, 1], subspaces=subs, cost=0.0, q=2.0,
                       iterations=0, converged=True)  # id out of range
        with pytest.raises(ParameterError):
            Clustering(k=1, assignment=[0, 0], subspaces=subs, cost=0.0, q=1.0,
                       iterations=0, converged=True)  # only squared distances
        with pytest.raises(ParameterError, match="does not match"):
            Clustering(k=2, assignment=[0, 1], cost=0.0, iterations=0, converged=True,
                       subspaces=(Subspace(np.eye(3)[:1]), Subspace(np.eye(4)[:1])))

    def test_assignment_read_only(self):
        from messi import Clustering

        c = Clustering(k=1, assignment=[0, 0], subspaces=(Subspace(np.eye(2)[:1]),),
                       cost=0.0, q=2.0, iterations=0, converged=True)
        with pytest.raises(ValueError):
            c.assignment[0] = 1


class TestEmOptions:
    def test_validation(self):
        with pytest.raises(ParameterError):
            EmOptions(restarts=0)
        with pytest.raises(ParameterError):
            EmOptions(max_iters=0)
        with pytest.raises(ParameterError):
            EmOptions(rel_tol=0.0)
        with pytest.raises(ParameterError):
            EmOptions(init="kmeans++")
        with pytest.raises(ParameterError):
            EmOptions(seed=-1)
