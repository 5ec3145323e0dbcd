"""Tests for error metrics, planted data generation and budget sweeps."""

import hashlib

import numpy as np
import pytest

from messi import (
    EmOptions,
    ParameterError,
    SweepSpec,
    SynthSpec,
    distances_sq,
    factorize,
    frobenius_error,
    generate_planted,
    load_bundle,
    rate_to_budget,
    reconstruct,
    run_sweep,
    save_bundle,
    truncated_svd,
)
from messi.linalg import Subspace, best_fit_subspace
from oracles import brute_force, gram_eig_tail, naive_frobenius

# Frozen at calibration time from the documented PCG64 draw order.
PLANTED_120_3_SHA256 = "d04cf67f8e916ff225ecde4f0fe07f3d65089660c100b1dbaac91cd69b44d50a"


class TestFrobeniusError:
    def test_identical_matrices(self):
        a = np.arange(6.0).reshape(2, 3)
        assert frobenius_error(a, a) == (0.0, 0.0)

    def test_identity_vs_zero(self):
        absolute, relative = frobenius_error(np.eye(2), np.zeros((2, 2)))
        assert absolute == pytest.approx(np.sqrt(2.0))
        assert relative == pytest.approx(1.0)

    def test_zero_vs_zero(self):
        assert frobenius_error(np.zeros((2, 2)), np.zeros((2, 2))) == (0.0, 0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((9, 7))
        b = rng.standard_normal((9, 7))
        absolute, relative = frobenius_error(a, b)
        expected = naive_frobenius(a, b)
        assert absolute == pytest.approx(expected, rel=1e-12)
        assert relative == pytest.approx(expected / np.linalg.norm(a), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            frobenius_error(np.eye(2), np.eye(3))


class TestGeneratePlanted:
    def test_noise_free_rows_lie_on_their_subspaces(self):
        spec = SynthSpec(n=12, d=4, k_true=3, j_true=2, noise_sigma=0.0, seed=2)
        a, labels = generate_planted(spec)
        # Round-robin assignment by construction.
        np.testing.assert_array_equal(labels, np.arange(12) % 3)
        for c in range(3):
            block = a[labels == c]
            s = best_fit_subspace(block, 2)
            assert float(np.sum(distances_sq(block, s))) <= 1e-12

    def test_noise_free_instance_reaches_zero_cost(self):
        spec = SynthSpec(n=8, d=3, k_true=2, j_true=1, noise_sigma=0.0, seed=3)
        a, _ = generate_planted(spec)
        scale = float(np.sum(a * a))
        result = brute_force(a, 2, 1)
        assert result.cost <= 1e-12 * scale

    def test_deterministic_across_calls(self):
        spec = SynthSpec(n=120, d=3, k_true=3, j_true=1, noise_sigma=0.05, seed=7)
        a1, l1 = generate_planted(spec)
        a2, l2 = generate_planted(spec)
        assert a1.tobytes() == a2.tobytes()
        np.testing.assert_array_equal(l1, l2)
        assert hashlib.sha256(a1.tobytes()).hexdigest() == PLANTED_120_3_SHA256

    def test_different_seeds_differ(self):
        base = dict(n=30, d=5, k_true=2, j_true=2, noise_sigma=0.1)
        a1, _ = generate_planted(SynthSpec(seed=1, **base))
        a2, _ = generate_planted(SynthSpec(seed=2, **base))
        assert not np.array_equal(a1, a2)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SynthSpec(n=10, d=3, k_true=2, j_true=4)
        with pytest.raises(ParameterError):
            SynthSpec(n=10, d=3, k_true=2, j_true=1, noise_sigma=-0.1)
        with pytest.raises(ParameterError):
            SynthSpec(n=0, d=3, k_true=1, j_true=1)


class TestRateToBudget:
    def test_definition(self):
        assert rate_to_budget(0.4, 20, 10) == 120
        assert rate_to_budget(0.3, 2000, 64) == 89600

    def test_bounds(self):
        with pytest.raises(ParameterError):
            rate_to_budget(0.0, 10, 10)
        with pytest.raises(ParameterError):
            rate_to_budget(1.0, 10, 10)


class TestRunSweep:
    @pytest.fixture()
    def matrix(self):
        rng = np.random.default_rng(41)
        return rng.standard_normal((20, 10))

    def test_k1_row_matches_svd(self, matrix):
        spec = SweepSpec(k_list=(1,), budget_list=(120,), options=EmOptions(restarts=2, seed=1))
        rows = run_sweep(matrix, spec)
        assert len(rows) == 1
        row = rows[0]
        assert row.k == 1 and row.dims == (4,) and row.params == 120
        svd = truncated_svd(matrix, 4)
        expected_abs, expected_rel = frobenius_error(matrix, svd.reconstruction())
        assert row.frobenius_error == pytest.approx(expected_abs, rel=1e-9)
        assert row.relative_error == pytest.approx(expected_rel, rel=1e-9)
        assert row.frobenius_error**2 == pytest.approx(gram_eig_tail(matrix, 4), rel=1e-8)

    def test_params_never_exceed_budget(self, matrix):
        spec = SweepSpec(
            k_list=(1, 2, 3), budget_list=(60, 97, 150),
            options=EmOptions(restarts=2, seed=2),
        )
        for row in run_sweep(matrix, spec):
            if row.params is not None:
                assert row.params <= 150
        # Per-cell check against the cell's own budget.
        for k in (1, 2, 3):
            for budget in (60, 97, 150):
                cell = [
                    r for r in run_sweep(
                        matrix,
                        SweepSpec(k_list=(k,), budget_list=(budget,),
                                  options=EmOptions(restarts=2, seed=2)),
                    )
                ][0]
                if cell.params is not None:
                    assert cell.params <= budget

    def test_infeasible_budget_becomes_warning_row(self, matrix):
        # k=8 needs n + 8d = 100 per dimension; budget 90 is infeasible.
        spec = SweepSpec(
            k_list=(8,), budget_list=(90,),
            options=EmOptions(restarts=2, seed=3),
        )
        rows = run_sweep(matrix, spec)
        assert len(rows) == 1
        assert rows[0].dims is None and rows[0].params is None
        assert rows[0].frobenius_error is None

    def test_rate_list_translation(self, matrix):
        budget = rate_to_budget(0.4, 20, 10)
        assert budget == 120
        spec = SweepSpec(k_list=(1,), budget_list=(budget,), options=EmOptions(restarts=2, seed=5))
        rows = run_sweep(matrix, spec)
        assert rows[0].params <= 120

    def test_error_nonincreasing_in_budget_for_k1(self, matrix):
        spec = SweepSpec(k_list=(1,), budget_list=(60, 90, 120, 150, 180),
                         options=EmOptions(restarts=1, seed=6))
        rows = run_sweep(matrix, spec)
        errors = [r.frobenius_error for r in rows]
        assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(k_list=(), budget_list=(10,))
        with pytest.raises(ParameterError):
            SweepSpec(k_list=(1,))


class TestFactorizeIsScaleAndSignExact:
    """factorize, save_bundle and load_bundle commute exactly with scaling the
    input by a power of two and with negating rows: no step has an absolute floor."""

    @pytest.fixture(scope="class")
    def planted(self):
        spec = SynthSpec(n=600, d=16, k_true=3, j_true=3, noise_sigma=0.05, seed=4)
        return generate_planted(spec)[0]

    @staticmethod
    def run(a, dims_auto, directory):
        clustering, fact, iterations = factorize(a, 3, 4, EmOptions(restarts=3, seed=42),
                                                 dims_auto=dims_auto)
        save_bundle(fact, directory, cost=clustering.cost, iterations=iterations)
        return clustering, load_bundle(directory), iterations

    @pytest.mark.parametrize("dims_auto", [False, True])
    def test_power_of_two_scaling(self, planted, dims_auto, tmp_path):
        base, f0, iterations = self.run(planted, dims_auto, tmp_path / "base")
        assert iterations > 2
        for s in (-100, -3, 2, 200):
            clustering, f, its = self.run(np.ldexp(planted, s), dims_auto, tmp_path / f"s{s}")
            np.testing.assert_array_equal(f.assignment, f0.assignment)
            assert (f.dims, its) == (f0.dims, iterations)
            np.testing.assert_array_equal(clustering.cost_history,
                                          np.ldexp(base.cost_history, 2 * s))
            np.testing.assert_array_equal(f.values, np.ldexp(f0.values, s))
            np.testing.assert_array_equal(f.v_stacked, f0.v_stacked)

    def test_negated_rows(self, planted, tmp_path):
        flip = np.random.default_rng(7).random(planted.shape[0]) < 0.5
        base, f0, _ = self.run(planted, False, tmp_path / "base")
        clustering, f, _ = self.run(np.where(flip[:, None], -planted, planted), False,
                                    tmp_path / "flip")
        np.testing.assert_array_equal(f.assignment, f0.assignment)
        np.testing.assert_array_equal(f.v_stacked, f0.v_stacked)
        assert clustering.cost == base.cost
        r0, r = reconstruct(f0), reconstruct(f)
        np.testing.assert_array_equal(r[flip], -r0[flip])
        np.testing.assert_array_equal(r[~flip], r0[~flip])


class TestResidualIdentity:
    def test_sweep_error_squared_equals_cost(self):
        # The reported error is the square root of the clustering cost.
        rng = np.random.default_rng(42)
        a = rng.standard_normal((30, 8))
        from messi import build_factorization, em_multi_restart, reconstruct

        opts = EmOptions(restarts=4, seed=9)
        spec = SweepSpec(k_list=(2,), budget_list=(100,), options=opts)
        row = run_sweep(a, spec)[0]
        j = row.dims[0]
        clus = em_multi_restart(a, 2, j, opts)
        assert row.frobenius_error**2 == pytest.approx(clus.cost, rel=1e-9)
        recon = reconstruct(build_factorization(a, clus))
        assert row.frobenius_error == pytest.approx(float(np.linalg.norm(a - recon)), rel=1e-12)


@pytest.mark.parametrize("kwargs, match", [
    ({"k_true": 0}, "k_true must be >= 1, got 0"),
], ids=["k_true"])
def test_synth_spec_rejects(kwargs, match):
    with pytest.raises(ParameterError, match=match):
        SynthSpec(**{"n": 10, "d": 3, "k_true": 2, "j_true": 1, **kwargs})
