"""Bounded-memory checks: fits, costs and factor builds read a cluster's rows in fixed chunks,
reconstruct multiplies each u block in place, and load_matrix and load_bundle map their files.

numpy reports its array buffers to tracemalloc, so the traced peak of a call
counts every temporary array it makes. A cluster of n_c rows gathered whole
would cost n_c * d * 8 bytes; the bound below allows two chunks of rows, a
few d x d matrices and a few length-n index vectors.
"""

import tracemalloc

import numpy as np
import pytest

from messi import (Clustering, build_factorization, clustering_cost, load_bundle, load_matrix,
                   reconstruct, refit_step, save_bundle, save_matrix)
from messi.cluster import _refit
from messi.linalg import CHUNK_ROWS

N, D, J = 8 * CHUNK_ROWS + 100, 32, 8
BOUND = 2 * CHUNK_ROWS * D * 8 + 4 * D * D * 8 + 4 * N * 8  # 1.61 MB


def traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def instance():
    """N x D normal rows, every row but the last 100 in cluster 0."""
    points = np.random.default_rng(7).standard_normal((N, D))
    assignment = np.zeros(N, dtype=np.int64)
    assignment[-100:] = 1
    return points, assignment


def test_refit_peak_is_bounded(instance):
    points, assignment = instance
    subspaces, peak = traced_peak(lambda: _refit(points, assignment, [J, J]))
    assert len(subspaces) == 2
    assert peak < BOUND


def test_build_factorization_peak_is_bounded(instance):
    points, assignment = instance
    clustering = Clustering(k=2, assignment=assignment,
                            subspaces=tuple(refit_step(points, assignment, 2, J)),
                            cost=0.0, iterations=0, converged=True)
    f, peak = traced_peak(lambda: build_factorization(points, clustering, threads=1))
    assert peak - f.values.nbytes - f.v_stacked.nbytes < BOUND


def test_clustering_cost_peak_is_bounded(instance):
    points, assignment = instance
    subspaces = refit_step(points, assignment, 2, J)
    _, peak = traced_peak(lambda: clustering_cost(points, assignment, subspaces))
    assert peak < BOUND


def test_reconstruct_gathers_no_block(instance):
    """reconstruct holds its output and one cluster's product at a time, plus a
    few length-n index vectors: less than one u block, so no block is copied."""
    points, assignment = instance
    clustering = Clustering(k=2, assignment=assignment,
                            subspaces=tuple(refit_step(points, assignment, 2, J)),
                            cost=0.0, iterations=0, converged=True)
    f = build_factorization(points, clustering, threads=1)
    largest = max(f.block_sizes())
    slack = 4 * N * 8
    assert slack < largest * J * 8
    out, peak = traced_peak(lambda: reconstruct(f))
    assert peak < out.nbytes + largest * D * 8 + slack


def test_load_bundle_maps_the_buffers(tmp_path):
    """A format-2 load allocates a few length-n index vectors and the j x j
    products of the orthonormality checks, not a copy of values: its buffers
    are mappings of the bundle's files. At this shape values is 16 MB, the
    index vectors about 0.2 MB each and the checks' products 80 kB."""
    rng = np.random.default_rng(3)
    n, d, j = 20000, 128, 100
    points = rng.standard_normal((n, d))
    assignment = np.arange(n) % 2
    clustering = Clustering(k=2, assignment=assignment,
                            subspaces=tuple(refit_step(points, assignment, 2, j)),
                            cost=0.0, iterations=0, converged=True)
    f = build_factorization(points, clustering, threads=1)
    save_bundle(f, tmp_path / "b")
    back, peak = traced_peak(lambda: load_bundle(tmp_path / "b"))
    assert back.values.tobytes() == f.values.tobytes()
    assert peak < f.values.nbytes / 10


def test_load_matrix_maps_a_float64_body(tmp_path):
    """A "<f8" matrix is its file's mapping: the load and its finiteness check
    allocate no copy of the 20 MB body."""
    m = np.random.default_rng(4).standard_normal((20000, 128))
    save_matrix(m, tmp_path / "m.npy")
    back, peak = traced_peak(lambda: load_matrix(tmp_path / "m.npy"))
    assert back.tobytes() == m.tobytes()
    assert peak < m.nbytes / 10
