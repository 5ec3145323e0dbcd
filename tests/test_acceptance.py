"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Heavy computations live in module-scoped fixtures; the determinism criterion
recomputes them from scratch (twice, with different thread counts) and
compares the rendered CSV bytes.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import messi
from messi import (
    EmOptions,
    FormatError,
    ReportRow,
    SweepSpec,
    SynthSpec,
    assemble_sparse,
    build_factorization,
    em_multi_restart,
    em_run,
    equal_budget_j,
    frobenius_error,
    generate_planted,
    load_bundle,
    param_count,
    rate_to_budget,
    reconstruct,
    render_report,
    run_sweep,
    save_bundle,
    svd_baseline_params,
    truncated_svd,
)
from messi.linalg import _blas_threads, _set_blas_threads
from oracles import brute_force, dense_u, gram_eig_tail

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

N_THREADS = 4


def _report_row(k, dims, n, d, cost, norm_sq, iterations, converged, seed):
    params = param_count(n, d, k, dims if isinstance(dims, int) else list(dims))
    fe = float(np.sqrt(max(cost, 0.0)))
    return ReportRow(
        k=k,
        dims=(dims,) * k if isinstance(dims, int) else tuple(dims),
        params=params,
        compression_rate=1.0 - params / (n * d),
        frobenius_error=fe,
        relative_error=fe / float(np.sqrt(norm_sq)),
        iterations=iterations,
        converged=converged,
        seed=seed,
    )


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_parameter_count_goldens():
    start = time.time()
    assert param_count(20, 10, 2, [3, 3]) == 120
    assert svd_baseline_params(20, 10, 4) == 120
    assert param_count(120, 3, 3, [1, 1, 1]) == 129
    assert param_count(120, 3, 1, [2]) == 246
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS: criterion 1 - parameter-count goldens 120/120/129/246 exact "
          f"({elapsed:.3f}s)")


# ---------------------------------------------------------------- criterion 2

def run_criterion_2(threads: int):
    """k=1 EM cost versus the Gram eigenvalue tail on 25 seeded matrices."""
    rows, checks = [], []
    for i in range(25):
        rng = np.random.default_rng(1000 + i)
        if i == 0:
            n, d = 200, 64
        else:
            n = int(rng.integers(20, 201))
            d = int(rng.integers(4, 65))
        j = int(rng.integers(1, min(16, d) + 1))
        a = rng.standard_normal((n, d))
        opts = EmOptions(restarts=3, seed=1000 + i)
        result = em_multi_restart(a, 1, j, opts, threads=threads)
        tail = gram_eig_tail(a, j)
        checks.append((result.cost, tail))
        rows.append(_report_row(1, j, n, d, result.cost, float(np.sum(a * a)),
                                result.iterations, result.converged, 1000 + i))
    return render_report(rows), checks


@pytest.fixture(scope="module")
def crit2():
    start = time.time()
    csv, checks = run_criterion_2(threads=1)
    return csv, checks, time.time() - start


def test_criterion_02_k1_equals_svd(crit2):
    _, checks, elapsed = crit2
    for cost, tail in checks:
        assert cost == pytest.approx(tail, rel=1e-8)
    assert len(checks) == 25
    assert elapsed < 30.0
    print(f"\nPASS: criterion 2 - em(k=1) cost equals Gram tail on 25 matrices "
          f"(rel tol 1e-8, {elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------- criterion 3

def _criterion_3_instance(i: int):
    rng = np.random.default_rng(2000 + i)
    if i == 0:
        n, d, k, j = 2000, 64, 8, 8
    else:
        n = int(rng.integers(1000, 2001)) if i % 10 == 5 else int(rng.integers(20, 400))
        d = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(8, n) + 1))
        j = int(rng.integers(1, min(8, d) + 1))
    if i % 2 == 1 and n >= k * j:
        spec = SynthSpec(n=n, d=d, k_true=k, j_true=j, noise_sigma=0.05,
                         seed=2000 + i)
        a, _ = generate_planted(spec)
    else:
        a = rng.standard_normal((n, d))
    return a, n, d, k, j


def run_criterion_3(threads: int):
    """100 seeded EM runs; every iteration-cost sequence must be nonincreasing."""
    def one(i: int):
        a, n, d, k, j = _criterion_3_instance(i)
        result = em_run(a, k, j, EmOptions(seed=2000 + i), restart_index=i % 4)
        return a, n, d, k, j, result

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, range(100)))
    else:
        outcomes = [one(i) for i in range(100)]

    rows, histories = [], []
    for a, n, d, k, j, result in outcomes:
        histories.append(result.cost_history)
        rows.append(_report_row(k, j, n, d, result.cost, float(np.sum(a * a)),
                                result.iterations, result.converged, 2000))
    return render_report(rows), histories


@pytest.fixture(scope="module")
def crit3():
    start = time.time()
    csv, histories = run_criterion_3(threads=1)
    return csv, histories, time.time() - start


def test_criterion_03_em_monotonicity(crit3):
    _, histories, elapsed = crit3
    assert len(histories) == 100
    for h in histories:
        for prev, nxt in zip(h, h[1:]):
            assert nxt <= prev * (1 + 1e-12) + 1e-15
    assert elapsed < 300.0
    print(f"\nPASS: criterion 3 - 100 EM cost sequences nonincreasing "
          f"(1e-12 relative slack, {elapsed:.1f}s < 5min)")


# ---------------------------------------------------------------- criterion 4

def run_criterion_4(threads: int):
    """EM with 64 restarts versus the brute-force optimum on 20 tiny instances."""
    rows, instances = [], []
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        pts = rng.standard_normal((10, 3))
        optimum = brute_force(pts, 2, 1)
        opts = EmOptions(restarts=64, seed=100 + i)
        em = em_multi_restart(pts, 2, 1, opts, threads=threads)
        instances.append((pts, optimum, em))
        rows.append(_report_row(2, 1, 10, 3, em.cost, float(np.sum(pts * pts)),
                                em.iterations, em.converged, 100 + i))
    return render_report(rows), instances


@pytest.fixture(scope="module")
def crit4():
    start = time.time()
    csv, instances = run_criterion_4(threads=1)
    return csv, instances, time.time() - start


def test_criterion_04_oracle_equivalence(crit4):
    _, instances, elapsed = crit4
    matches = 0
    for _, optimum, em in instances:
        assert em.cost >= optimum.cost - 1e-9 * (1 + optimum.cost)  # never beats
        if (em.cost - optimum.cost) / max(optimum.cost, 1e-30) <= 1e-6:
            matches += 1
    assert matches >= 18, f"only {matches}/20 instances matched the brute-force optimum"
    assert elapsed < 60.0
    print(f"\nPASS: criterion 4 - EM(64 restarts) matched brute force on "
          f"{matches}/20 instances (threshold 18, {elapsed:.1f}s < 1min)")


# ---------------------------------------------------------------- criterion 5

PLANTED_SEED_5 = 24  # three lines in general position (non-coplanar draw)
FROZEN_MARGIN_5 = 3.5  # measured 3.99x at freeze time


def run_criterion_5(threads: int):
    spec = SynthSpec(n=120, d=3, k_true=3, j_true=1, noise_sigma=0.05,
                     seed=PLANTED_SEED_5)
    a, _ = generate_planted(spec)
    norm_sq = float(np.sum(a * a))
    clus = em_multi_restart(a, 3, 1, EmOptions(restarts=16, seed=5), threads=threads)
    fact = build_factorization(a, clus)
    err_m, _ = frobenius_error(a, reconstruct(fact))
    svd = truncated_svd(a, 2)
    err_s, _ = frobenius_error(a, svd.reconstruction())
    # The k=1 factorization realizes the same SVD baseline as a bundle.
    clus1 = em_multi_restart(a, 1, 2, EmOptions(restarts=2, seed=5), threads=threads)
    fact1 = build_factorization(a, clus1)
    rows = [
        _report_row(3, 1, 120, 3, err_m**2, norm_sq, clus.iterations, clus.converged, 5),
        _report_row(1, 2, 120, 3, err_s**2, norm_sq, clus1.iterations, clus1.converged, 5),
    ]
    return render_report(rows), (a, clus, fact, err_m, err_s, clus1, fact1)


@pytest.fixture(scope="module")
def crit5():
    start = time.time()
    csv, aux = run_criterion_5(threads=1)
    return csv, aux, time.time() - start


def test_criterion_05_lines_vs_plane(crit5):
    _, (a, clus, fact, err_m, err_s, clus1, fact1), elapsed = crit5
    assert fact.param_count() == 129
    assert svd_baseline_params(120, 3, 2) == 246
    assert fact1.param_count() == 246
    # The em(k=1) route and the direct SVD route agree on the baseline error.
    err_1 = float(np.linalg.norm(a - reconstruct(fact1)))
    assert err_1 == pytest.approx(err_s, rel=1e-9)
    assert err_m < err_s, "clustered factorization must beat the larger SVD baseline"
    ratio = err_s / err_m
    assert ratio >= 2.0, f"expected at least a 2x error margin, got {ratio:.3f}x"
    assert ratio >= FROZEN_MARGIN_5, f"frozen margin {FROZEN_MARGIN_5}x not met: {ratio:.3f}x"
    assert elapsed < 10.0
    print(f"\nPASS: criterion 5 - 129-parameter clustered model beats 246-parameter "
          f"SVD by {ratio:.2f}x (>= 2x, {elapsed:.1f}s < 10s)")


# ---------------------------------------------------------------- criterion 6

CRIT6_RATES = (0.30, 0.50, 0.60)
FROZEN_MARGINS_6 = {0.30: 1.02, 0.50: 1.8, 0.60: 6.0}  # measured 1.037 / 2.06 / 7.42


def _crit6_matrix():
    spec = SynthSpec(n=2000, d=64, k_true=4, j_true=8, noise_sigma=0.01,
                     seed=13)
    return generate_planted(spec)[0]


def _crit6_options():
    return EmOptions(restarts=8, max_iters=100, seed=17)


def run_criterion_6(threads: int):
    a = _crit6_matrix()
    n, d = a.shape
    budgets = tuple(rate_to_budget(r, n, d) for r in CRIT6_RATES)
    spec = SweepSpec(k_list=(1, 4), budget_list=budgets, options=_crit6_options())
    rows = run_sweep(a, spec, threads=threads)
    return render_report(rows), (a, budgets, rows)


@pytest.fixture(scope="module")
def crit6():
    start = time.time()
    csv, aux = run_criterion_6(threads=1)
    return csv, aux, time.time() - start


@pytest.fixture(scope="module")
def crit6_factorizations(crit6):
    """Rebuild the factorization behind each sweep cell (deterministic rerun)."""
    _, (a, budgets, rows), _ = crit6
    n, d = a.shape
    opts = _crit6_options()
    items = []
    for k in (1, 4):
        for budget in sorted(budgets):
            j = min(equal_budget_j(n, d, k, budget), d)
            clus = em_multi_restart(a, k, j, opts, threads=1)
            items.append((a, clus, build_factorization(a, clus)))
    return items


def test_criterion_06_equal_budget_dominance(crit6, crit6_factorizations):
    _, (a, budgets, rows), elapsed = crit6
    assert len(rows) == 6
    by_budget = sorted(budgets)
    rate_of = {rate_to_budget(r, *a.shape): r for r in CRIT6_RATES}
    for i, budget in enumerate(by_budget):
        baseline, clustered = rows[i], rows[3 + i]
        assert baseline.k == 1 and clustered.k == 4
        assert clustered.params <= budget and baseline.params <= budget
        assert clustered.relative_error < baseline.relative_error, (
            f"k=4 must beat k=1 at budget {budget}"
        )
        ratio = baseline.relative_error / clustered.relative_error
        margin = FROZEN_MARGINS_6[rate_of[budget]]
        assert ratio >= margin, f"frozen margin {margin}x at budget {budget}: got {ratio:.3f}x"
    # The sweep rows must agree with the per-cell recomputation.
    for row, (_, clus, fact) in zip(rows, crit6_factorizations):
        assert row.params == fact.param_count()
        assert row.frobenius_error**2 == pytest.approx(clus.cost, rel=1e-9)
    assert elapsed < 600.0
    ratios = [rows[i].relative_error / rows[3 + i].relative_error for i in range(3)]
    print(f"\nPASS: criterion 6 - k=4 beats the k=1 baseline at budgets spanning "
          f"30-60% compression (error ratios "
          f"{', '.join(f'{r:.2f}x' for r in ratios)}, {elapsed:.1f}s < 10min)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_residual_identity_and_sparsity(crit4, crit5, crit6_factorizations):
    start = time.time()
    _, instances4, _ = crit4
    _, (a5, clus5, fact5, _, _, clus5_1, fact5_1), _ = crit5
    collected = [(pts, em, build_factorization(pts, em)) for pts, _, em in instances4]
    collected.append((a5, clus5, fact5))
    collected.append((a5, clus5_1, fact5_1))
    collected.extend(crit6_factorizations)
    assert len(collected) == 28
    for a, clus, fact in collected:
        residual_sq = float(np.sum((a - reconstruct(fact)) ** 2))
        assert residual_sq == pytest.approx(clus.cost, rel=1e-9, abs=1e-9)
        sa = assemble_sparse(fact)
        recon = reconstruct(fact)
        scale = max(1.0, float(np.max(np.abs(recon))))
        assert float(np.max(np.abs(dense_u(sa) @ sa.v_stacked - recon))) <= 1e-9 * scale
        dims = np.asarray(fact.dims, dtype=np.int64)
        np.testing.assert_array_equal(sa.row_widths(), dims[fact.assignment])
        np.testing.assert_array_equal(sa.col_offsets, sa.offsets[fact.assignment])
    print(f"\nPASS: criterion 7 - residual identity, sparse product and structural "
          f"sparsity verified on {len(collected)} factorizations ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_round_trips(tmp_path):
    start = time.time()
    for i in range(5):
        rng = np.random.default_rng(300 + i)
        m = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(2, 20))))
        path = tmp_path / f"m{i}.npy"
        messi.save_matrix(m, path)
        assert messi.load_matrix(path).tobytes() == m.tobytes()
    for i in range(5):
        rng = np.random.default_rng(400 + i)
        pts = rng.standard_normal((14, 6))
        clus = em_multi_restart(pts, 2, 2, EmOptions(restarts=4, seed=400 + i))
        fact = build_factorization(pts, clus)
        bundle = tmp_path / f"b{i}"
        save_bundle(fact, bundle, seed=400 + i, cost=clus.cost,
                    iterations=clus.iterations, converged=clus.converged)
        back = load_bundle(bundle)
        assert back.assignment.tobytes() == fact.assignment.tobytes()
        for b1, b2 in zip(fact.blocks, back.blocks):
            assert b1.u.tobytes() == b2.u.tobytes()
            assert b1.v.tobytes() == b2.v.tobytes()

    good = tmp_path / "m0.npy"
    bad_magic = bytearray(good.read_bytes())
    bad_magic[0] = 0x00
    (tmp_path / "bad_magic.npy").write_bytes(bad_magic)
    with pytest.raises(FormatError):
        messi.load_matrix(tmp_path / "bad_magic.npy")
    np.save(tmp_path / "fortran.npy", np.asfortranarray(np.ones((3, 2))))
    with pytest.raises(FormatError):
        messi.load_matrix(tmp_path / "fortran.npy")
    np.save(tmp_path / "objarr.npy", np.array([[{"a": 1}, None]], dtype=object),
            allow_pickle=True)
    with pytest.raises(FormatError):
        messi.load_matrix(tmp_path / "objarr.npy")
    print(f"\nPASS: criterion 8 - 10 artifacts round-trip bit-exactly; malformed NPY "
          f"files rejected with format errors ({time.time() - start:.1f}s)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_scope_statement_in_readme():
    with open(README, "r", encoding="utf-8") as fh:
        text = fh.read().lower()
    assert "glue" in text
    assert "fine-tun" in text
    assert "out of scope" in text
    assert "reconstruction error" in text
    print("\nPASS: criterion 9 - README states that GLUE/fine-tuning accuracy results "
          "are out of scope and reconstruction-error experiments stand in for them")


# ---------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(crit2, crit3, crit4, crit5, crit6):
    start = time.time()
    firsts = {2: crit2[0], 3: crit3[0], 4: crit4[0], 5: crit5[0], 6: crit6[0]}
    # fixtures carry (csv, aux, elapsed); only the CSV text matters here
    runners = {
        2: run_criterion_2,
        3: run_criterion_3,
        4: run_criterion_4,
        5: run_criterion_5,
        6: run_criterion_6,
    }
    for crit_id, runner in runners.items():
        rerun_csv, _ = runner(threads=1)
        threaded_csv, _ = runner(threads=N_THREADS)
        assert rerun_csv == firsts[crit_id], f"criterion {crit_id} CSV differs across runs"
        assert threaded_csv == firsts[crit_id], (
            f"criterion {crit_id} CSV differs between 1 and {N_THREADS} threads"
        )
    print(f"\nPASS: criterion 10 - criteria 2-6 CSVs bit-identical across reruns and "
          f"across 1 vs {N_THREADS} threads ({time.time() - start:.1f}s)")


def test_criterion_06_csv_identical_across_blas_threads():
    saved = _blas_threads()
    if saved is None:
        pytest.skip("no hook to numpy's OpenBLAS thread count was found, so it cannot be set")
    csvs = []
    try:
        for count in (1, 2):
            _set_blas_threads(count)
            assert _blas_threads() == count
            csvs.append(run_criterion_6(threads=1)[0])
    finally:
        _set_blas_threads(saved)
    assert csvs[0] == csvs[1], "criterion 6 CSV differs between 1 and 2 BLAS threads"
