"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import messi
from messi.cli import main
from messi.linalg import _blas_threads, _set_blas_threads
from oracles import brute_force, gram_eig_tail


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def write_planted(path, n=20, d=10, k_true=2, j_true=3, noise=0.01, seed=3):
    spec = messi.SynthSpec(n=n, d=d, k_true=k_true, j_true=j_true,
                           noise_sigma=noise, seed=seed)
    a, _ = messi.generate_planted(spec)
    messi.save_matrix(a, path)
    return a


def write_mixed_ranks(path):
    """450x12: 150 rows near each of three subspaces of ranks 1, 3 and 8, plus noise."""
    rng = np.random.default_rng(9)
    blocks = []
    for r in (1, 3, 8):
        q, _ = np.linalg.qr(rng.standard_normal((12, r)))
        blocks.append(rng.uniform(-1, 1, (150, r)) @ q.T)
    a = np.vstack(blocks) + 0.05 * rng.standard_normal((450, 12))
    messi.save_matrix(a, path)
    return a


def bundle_bytes(path):
    return b"".join(p.read_bytes() for p in sorted(path.iterdir()))


def stdout_value(output, key):
    for line in output.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"{key} not found in output:\n{output}")


class TestCompress:
    def test_bundle_params_120(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "bundle"),
        ])
        assert result.exit_code == 0
        assert stdout_value(result.output, "params") == "120"
        meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
        assert meta["n"] == 20 and meta["k"] == 2 and meta["dims"] == [3, 3]

    def test_k1_baseline_params(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "1", "--j", "4", "--output", str(tmp_path / "b1"),
        ])
        assert result.exit_code == 0
        assert stdout_value(result.output, "params") == "120"

    def test_budget_selects_j(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--budget", "120", "--output", str(tmp_path / "b2"),
        ])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "b2" / "meta.json").read_text())
        assert meta["dims"] == [3, 3]

    def test_dims_auto(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy", k_true=2, j_true=2, noise=0.0, seed=5)
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--dims-auto", "--output", str(tmp_path / "b3"),
        ])
        assert result.exit_code == 0
        meta = json.loads((tmp_path / "b3" / "meta.json").read_text())
        assert sum(meta["dims"]) == 6
        # Rank-2 planted clusters: extra dims carry no energy, cost stays ~0.
        assert meta["cost"] <= 1e-10

    def test_dims_auto_reassigns_rows(self, runner, tmp_path):
        # A single refit after the reallocation leaves dims [5, 3, 4] at cost
        # 86.69, with 26 rows off their nearest subspace; EM from there reaches 75.01.
        a = write_mixed_ranks(tmp_path / "a.npy")
        result = invoke(runner, [
            "--seed", "42", "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "3", "--j", "4", "--restarts", "4", "--dims-auto",
            "--output", str(tmp_path / "b"),
        ])
        assert result.exit_code == 0
        f = messi.load_bundle(tmp_path / "b")
        assert sum(f.dims) == 12
        assert float(stdout_value(result.output, "cost")) < 78
        dists = np.stack([np.sum((a - a @ b.v.T @ b.v) ** 2, axis=1) for b in f.blocks], axis=1)
        own = dists[np.arange(a.shape[0]), f.assignment]
        assert np.all(own <= dists.min(axis=1) + 1e-12)
        evaluated = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "a.npy"), "--bundle", str(tmp_path / "b"),
        ])
        assert evaluated.exit_code == 0
        assert "residual_identity=ok" in evaluated.output

    def test_dims_auto_identical_across_threads_and_blas_threads(self, runner, tmp_path):
        saved = _blas_threads()
        if saved is None:
            pytest.skip("no hook to numpy's OpenBLAS thread count was found, so it cannot be set")
        write_mixed_ranks(tmp_path / "a.npy")
        outputs = []
        try:
            for blas in (1, 2):
                _set_blas_threads(blas)
                for threads in ("1", "2"):
                    out = tmp_path / f"b{blas}{threads}"
                    result = invoke(runner, [
                        "--threads", threads, "--quiet", "compress",
                        "--input", str(tmp_path / "a.npy"), "--k", "3", "--j", "4",
                        "--restarts", "4", "--dims-auto", "--output", str(out),
                    ])
                    assert result.exit_code == 0
                    outputs.append((result.output, bundle_bytes(out)))
        finally:
            _set_blas_threads(saved)
        assert all(o == outputs[0] for o in outputs[1:])

    def test_usage_errors(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        both = invoke(runner, [
            "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--budget", "120", "--output", str(tmp_path / "x"),
        ])
        assert both.exit_code == 2
        neither = invoke(runner, [
            "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--output", str(tmp_path / "x"),
        ])
        assert neither.exit_code == 2
        assert not (tmp_path / "x").exists()

    def test_q_option_removed(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        result = invoke(runner, [
            "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--q", "1", "--output", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
        assert not (tmp_path / "x").exists()

    def test_bundle_identical_across_threads(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy", noise=0.05, seed=12)
        blobs = []
        for tag, threads in (("b1", "1"), ("b2", "4")):
            invoke(runner, [
                "--threads", threads, "--quiet", "compress",
                "--input", str(tmp_path / "a.npy"),
                "--k", "2", "--j", "3", "--output", str(tmp_path / tag),
            ])
            blobs.append(b"".join(
                (tmp_path / tag / name).read_bytes()
                for name in sorted(p.name for p in (tmp_path / tag).iterdir())
            ))
        assert blobs[0] == blobs[1]

    def test_input_file_never_mutated(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        before = (tmp_path / "a.npy").read_bytes()
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        assert (tmp_path / "a.npy").read_bytes() == before

    def test_output_over_foreign_directory_exit_1(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "important.txt").write_text("keep me")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "data"),
        ])
        assert result.exit_code == 1
        assert "not a bundle" in result.output
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["important.txt"]
        assert (tmp_path / "data" / "important.txt").read_text() == "keep me"

    def test_output_checked_before_clustering(self, runner, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("EM ran although --output cannot be written")

        monkeypatch.setattr("messi.evalgen.em_multi_restart", must_not_run)
        write_planted(tmp_path / "a.npy")
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "important.txt").write_text("keep me")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "data"),
        ])
        assert result.exit_code == 1
        assert "not a bundle" in result.output
        assert (tmp_path / "data" / "important.txt").read_text() == "keep me"

    def test_symlinked_output_refused_before_clustering(self, runner, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("EM ran although --output cannot be written")

        monkeypatch.setattr("messi.evalgen.em_multi_restart", must_not_run)
        write_planted(tmp_path / "a.npy")
        (tmp_path / "empty").mkdir()
        (tmp_path / "link").symlink_to("empty")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "link"),
        ])
        assert result.exit_code == 1
        assert f"{tmp_path / 'link'} is not a directory or is a symlink" in result.output
        assert str((tmp_path / "link").readlink()) == "empty"
        assert not any((tmp_path / "empty").iterdir())

    def test_infeasible_sizes_exit_1(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "11", "--output", str(tmp_path / "x"),
        ])
        assert result.exit_code == 1
        assert not (tmp_path / "x").exists()

    def test_entries_whose_squares_overflow_exit_1(self, runner, tmp_path):
        # Finite, so load_matrix passes it; EM's first fit finds its Gram non-finite.
        a = write_planted(tmp_path / "a.npy", n=300, d=6)
        messi.save_matrix(a * 1e160, tmp_path / "big.npy")
        result = invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "big.npy"),
            "--k", "2", "--j", "2", "--output", str(tmp_path / "x"),
        ])
        assert result.exit_code == 1
        assert "Error: matrix contains non-finite entries, or entries whose squares overflow" in (
            result.output)
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args", [
    ["compress", "--k", "0", "--j", "3"],
    ["compress", "--k", "2", "--j", "0"],
    ["compress", "--k", "2", "--budget", "0"],
    ["compress", "--k", "2", "--j", "3", "--restarts", "0"],
    ["compress", "--k", "2", "--j", "3", "--max-iters", "0"],
    ["compress", "--k", "2", "--j", "3", "--tol", "0"],
    ["compress", "--k", "2", "--j", "3", "--tol", "-1e-6"],
    ["compress", "--k", "2", "--j", "3", "--tol", "nan"],
    ["sweep", "--k-list", "1", "--budget-list", "120", "--restarts", "0"],
    ["sweep", "--k-list", "0,2", "--budget-list", "120"],
    ["sweep", "--k-list", "2,x", "--budget-list", "120"],
    ["sweep", "--k-list", "2", "--budget-list", "0"],
    ["sweep", "--k-list", "2", "--budget-list", "-5"],
    ["sweep", "--k-list", "2", "--rate-list", "1.5"],
], ids=" ".join)
def test_out_of_range_option_exit_2(runner, tmp_path, monkeypatch, args):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the matrix was loaded before the options were checked")

    write_planted(tmp_path / "a.npy")
    monkeypatch.setattr("messi.io.load_matrix", must_not_run)
    result = invoke(runner, [
        args[0], "--input", str(tmp_path / "a.npy"), *args[1:], "--output", str(tmp_path / "x"),
    ])
    assert result.exit_code == 2
    assert "clustering" not in result.output
    assert not (tmp_path / "x").exists()


def test_zero_threads_exit_2(runner, tmp_path):
    result = invoke(runner, ["--threads", "0", "synth", "--output", str(tmp_path / "a.npy")])
    assert result.exit_code == 2
    assert "--threads must be >= 1" in result.output
    assert not (tmp_path / "a.npy").exists()


def test_progress_goes_to_stderr_only(runner, tmp_path):
    """Without --quiet, compress and sweep report progress on stderr; stdout and files
    are those of a --quiet run."""
    write_planted(tmp_path / "a.npy")
    commands = {
        "compress": ["compress", "--input", str(tmp_path / "a.npy"), "--k", "2", "--j", "3",
                     "--restarts", "2", "--dims-auto", "--output"],
        "sweep": ["sweep", "--input", str(tmp_path / "a.npy"), "--k-list", "2",
                  "--budget-list", "10,120", "--restarts", "2", "--output"],
    }
    expected = {
        "compress": ["clustering 20x10 matrix with k=2, j=3, 2 restarts", "reallocated dims: ["],
        "sweep": ["skipping infeasible cell k=1 budget=10", "clustering k=1 j=4 (budget 120)",
                  "skipping infeasible cell k=2 budget=10", "clustering k=2 j=3 (budget 120)",
                  "wrote 4 rows to "],
    }
    for name, args in commands.items():
        quiet = invoke(runner, ["--quiet", *args, str(tmp_path / f"{name}-quiet")])
        loud = invoke(runner, [*args, str(tmp_path / f"{name}-loud")])
        assert quiet.exit_code == loud.exit_code == 0
        assert loud.stdout == quiet.stdout
        assert quiet.stderr == ""
        lines = loud.stderr.splitlines()
        assert len(lines) == len(expected[name])
        for line, start in zip(lines, expected[name]):
            assert line.startswith(start), (line, start)
    assert (tmp_path / "sweep-loud").read_bytes() == (tmp_path / "sweep-quiet").read_bytes()
    assert bundle_bytes(tmp_path / "compress-loud") == bundle_bytes(tmp_path / "compress-quiet")


class TestEvaluate:
    def test_exact_bundle(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy", noise=0.0, seed=8)
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        result = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "a.npy"),
            "--bundle", str(tmp_path / "b"), "--report", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 0
        assert float(stdout_value(result.output, "relative_error")) <= 1e-9
        assert stdout_value(result.output, "residual_identity") == "ok"
        rows = messi.parse_report((tmp_path / "r.csv").read_text())
        assert rows[0].params == 120

    def test_k1_matches_svd_residual(self, runner, tmp_path):
        a = write_planted(tmp_path / "a.npy", noise=0.3, seed=9)
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "1", "--j", "4", "--output", str(tmp_path / "b"),
        ])
        result = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "a.npy"), "--bundle", str(tmp_path / "b"),
        ])
        err = float(stdout_value(result.output, "frobenius_error"))
        assert err**2 == pytest.approx(gram_eig_tail(a, 4), rel=1e-8)

    def test_shape_mismatch_exit_1(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        write_planted(tmp_path / "other.npy", n=21)
        result = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "other.npy"), "--bundle", str(tmp_path / "b"),
        ])
        assert result.exit_code == 1

    def test_wrong_stored_cost_exit_1(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        meta = json.loads((tmp_path / "b" / "meta.json").read_text())
        meta["cost"] = 2.0 * meta["cost"] + 1.0
        (tmp_path / "b" / "meta.json").write_text(json.dumps(meta))
        result = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "a.npy"), "--bundle", str(tmp_path / "b"),
            "--report", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 1
        assert stdout_value(result.stdout, "residual_identity") == "mismatch"
        assert "disagrees with stored cost" in result.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_tampered_bundle_of_a_tiny_matrix_exit_1(self, runner, tmp_path):
        # The self-check's floor follows ||A||_F^2, so scaling the input down hides no fault.
        invoke(runner, ["synth", "--n", "600", "--d", "12", "--k-true", "3", "--j-true", "2",
                        "--noise", "0.01", "--output", str(tmp_path / "a.npy")])
        messi.save_matrix(np.ldexp(np.load(tmp_path / "a.npy"), -30), tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "3", "--j", "2", "--output", str(tmp_path / "b"),
        ])
        values = tmp_path / "b" / "values.npy"
        np.save(values, 3.0 * np.load(values))
        result = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "a.npy"), "--bundle", str(tmp_path / "b"),
        ])
        assert result.exit_code == 1
        assert float(stdout_value(result.stdout, "relative_error")) > 1.9
        assert stdout_value(result.stdout, "residual_identity") == "mismatch"
        assert "disagrees with stored cost" in result.stderr

    def test_nonfinite_values_blame_the_bundle(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        values = tmp_path / "b" / "values.npy"
        raw = bytearray(values.read_bytes())
        raw[-8:] = np.array([np.nan]).tobytes()  # the last entry of the body
        values.write_bytes(raw)
        result = invoke(runner, [
            "evaluate", "--input", str(tmp_path / "a.npy"), "--bundle", str(tmp_path / "b"),
        ])
        assert result.exit_code == 1
        assert f"bundle {tmp_path / 'b'} reconstructs to non-finite entries" in result.stderr
        assert "matrix contains" not in result.output


class TestSweep:
    def test_k1_only_is_pure_svd_curve(self, runner, tmp_path):
        a = write_planted(tmp_path / "a.npy", noise=0.2, seed=10)
        result = invoke(runner, [
            "--quiet", "sweep", "--input", str(tmp_path / "a.npy"),
            "--k-list", "1", "--budget-list", "90,120,150",
            "--restarts", "2", "--output", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == 0
        rows = messi.parse_report((tmp_path / "s.csv").read_text())
        assert [r.k for r in rows] == [1, 1, 1]
        for row in rows:
            j = row.dims[0]
            assert row.frobenius_error**2 == pytest.approx(gram_eig_tail(a, j), rel=1e-8)

    def test_rates_map_to_budgets(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        result = invoke(runner, [
            "--quiet", "sweep", "--input", str(tmp_path / "a.npy"),
            "--k-list", "1,2", "--rate-list", "0.4",
            "--restarts", "2", "--output", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == 0
        rows = messi.parse_report((tmp_path / "s.csv").read_text())
        # budget = ceil(0.6 * 200) = 120
        assert all(r.params <= 120 for r in rows)

    def test_baseline_included_and_rows_ordered(self, runner, tmp_path):
        messi.save_matrix(np.random.default_rng(41).standard_normal((20, 10)), tmp_path / "a.npy")
        result = invoke(runner, [
            "--quiet", "--seed", "4", "sweep", "--input", str(tmp_path / "a.npy"),
            "--k-list", "2", "--budget-list", "120,90",
            "--restarts", "2", "--output", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == 0
        rows = messi.parse_report((tmp_path / "s.csv").read_text())
        assert [r.k for r in rows] == [1, 1, 2, 2]
        assert rows[0].params <= rows[1].params  # budgets ascending within k

    def test_usage_errors(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        for args in (
            ["sweep", "--input", str(tmp_path / "a.npy"), "--k-list", "",
             "--budget-list", "120", "--output", str(tmp_path / "s.csv")],
            ["sweep", "--input", str(tmp_path / "a.npy"), "--k-list", "1",
             "--output", str(tmp_path / "s.csv")],
            ["sweep", "--input", str(tmp_path / "a.npy"), "--k-list", "1",
             "--rate-list", "0.4", "--budget-list", "120",
             "--output", str(tmp_path / "s.csv")],
        ):
            result = invoke(runner, args)
            assert result.exit_code == 2
            assert not (tmp_path / "s.csv").exists()

    def test_compress_report_row_equals_sweep_row(self, runner, tmp_path):
        # compress and every sweep cell run one pipeline, messi.factorize.
        write_planted(tmp_path / "a.npy", n=600, d=16, k_true=3, j_true=3, noise=0.05, seed=12)
        common = ["--quiet", "--seed", "7"]
        invoke(runner, [*common, "compress", "--input", str(tmp_path / "a.npy"), "--k", "3",
                        "--budget", "3000", "--restarts", "3", "--output", str(tmp_path / "b")])
        invoke(runner, ["evaluate", "--input", str(tmp_path / "a.npy"),
                        "--bundle", str(tmp_path / "b"), "--report", str(tmp_path / "r.csv")])
        result = invoke(runner, [*common, "sweep", "--input", str(tmp_path / "a.npy"),
                                 "--k-list", "3", "--budget-list", "3000", "--restarts", "3",
                                 "--output", str(tmp_path / "s.csv")])
        assert result.exit_code == 0
        row = (tmp_path / "r.csv").read_text().splitlines()[1]
        assert row.startswith("3,4;4;4,")
        sweep_rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert row == next(r for r in sweep_rows if r.startswith("3,"))

    def test_deterministic_output_bytes(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy", noise=0.1, seed=11)
        args_base = [
            "--quiet", "sweep", "--input", str(tmp_path / "a.npy"),
            "--k-list", "1,2", "--budget-list", "90,120", "--restarts", "3",
        ]
        blobs = []
        for tag, threads in (("s1.csv", None), ("s2.csv", None), ("s3.csv", 4)):
            args = list(args_base) + ["--output", str(tmp_path / tag)]
            if threads:
                args = ["--threads", str(threads)] + args
            assert invoke(runner, args).exit_code == 0
            blobs.append((tmp_path / tag).read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestSynth:
    def test_default_instance_shape(self, runner, tmp_path):
        result = invoke(runner, [
            "synth", "--output", str(tmp_path / "a.npy"), "--labels", str(tmp_path / "l.npy"),
        ])
        assert result.exit_code == 0
        a = messi.load_matrix(tmp_path / "a.npy")
        assert a.shape == (120, 3)
        labels = np.load(tmp_path / "l.npy")
        np.testing.assert_array_equal(labels, np.arange(120) % 3)

    def test_zero_noise_reaches_zero_cost(self, runner, tmp_path):
        invoke(runner, [
            "synth", "--n", "9", "--d", "3", "--k-true", "3", "--j-true", "1",
            "--noise", "0", "--seed", "4", "--output", str(tmp_path / "a.npy"),
        ])
        a = messi.load_matrix(tmp_path / "a.npy")
        result = brute_force(a, 3, 1)
        assert result.cost <= 1e-12 * float(np.sum(a * a))

    def test_fixed_seed_stable_bytes(self, runner, tmp_path):
        for name in ("a1.npy", "a2.npy"):
            invoke(runner, ["--seed", "77", "synth", "--output", str(tmp_path / name)])
        assert (tmp_path / "a1.npy").read_bytes() == (tmp_path / "a2.npy").read_bytes()

    def test_invalid_spec_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "synth", "--n", "10", "--d", "3", "--j-true", "5",
            "--output", str(tmp_path / "a.npy"),
        ])
        assert result.exit_code == 2
        assert not (tmp_path / "a.npy").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_noise_not_finite_and_nonnegative_exit_2(self, runner, tmp_path, noise):
        result = runner.invoke(main, ["synth", "--noise", noise,
                                      "--output", str(tmp_path / "a.npy")])
        assert result.exit_code == 2
        assert "noise_sigma must be finite and >= 0" in result.output
        assert not (tmp_path / "a.npy").exists()


class TestInspect:
    def test_reports_block_structure(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        result = invoke(runner, ["inspect", "--bundle", str(tmp_path / "b")])
        assert result.exit_code == 0
        assert stdout_value(result.output, "params") == "120"
        sizes = [
            int(line.split("rows=")[1].split()[0])
            for line in result.output.splitlines() if line.startswith("block ")
        ]
        assert sum(sizes) == 20
        assert "min=3 max=3" in result.output

    def test_k1_single_block(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "1", "--j", "4", "--output", str(tmp_path / "b"),
        ])
        result = invoke(runner, ["inspect", "--bundle", str(tmp_path / "b")])
        assert result.output.count("block ") == 1

    def test_tampered_bundle_exit_1(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        meta = json.loads((tmp_path / "b" / "meta.json").read_text())
        meta["dims"] = [3, 4]
        (tmp_path / "b" / "meta.json").write_text(json.dumps(meta))
        result = invoke(runner, ["inspect", "--bundle", str(tmp_path / "b")])
        assert result.exit_code == 1
        assert "values.npy: has shape" in result.output

    def test_non_utf8_meta_exit_1(self, runner, tmp_path):
        write_planted(tmp_path / "a.npy")
        invoke(runner, [
            "--quiet", "compress", "--input", str(tmp_path / "a.npy"),
            "--k", "2", "--j", "3", "--output", str(tmp_path / "b"),
        ])
        meta = bytearray((tmp_path / "b" / "meta.json").read_bytes())
        meta[5] ^= 0x80
        (tmp_path / "b" / "meta.json").write_bytes(bytes(meta))
        result = invoke(runner, ["inspect", "--bundle", str(tmp_path / "b")])
        assert result.exit_code == 1
        assert "Error:" in result.output and "meta.json" in result.output
