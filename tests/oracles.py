"""Independent oracles used to freeze and check expected values.

Most of these reuse none of the library's code paths (which fit subspaces
from `eigh` of each cluster's Gram matrix): fit costs come from `eigvalsh`
eigenvalue tails, distances from explicit projection residuals,
`dense_u` scatters the sparse layer's runs into a dense matrix, and
`gathered_lookup` multiplies every asked-for row, repeats included,
`greedy_dims` splits dims by one argmax per dim, and `save_bundle_v1`
writes a bundle in the retired format 1, with numpy's own `np.save`. Three drive
the library's own steps: `brute_force` enumerates every row partition and
scores it by Gram eigenvalue tails, then refits the winner with the
library's M-step; `assign_step` is one nearest-subspace pass of EM's
assignment kernel; `reference_em_run` runs EM's loop without any reuse, to
check that reuse changes no bit.
"""

import itertools
import json
import os

import numpy as np

from messi.cluster import (
    Clustering,
    _assign_and_cost,
    _check_dims,
    _check_subspaces,
    _refit,
    _units,
    clustering_cost,
)
from messi.errors import MessiError
from messi.linalg import (_check_ids, _gram_eigh, _one_blas_thread, _row_norms_sq, as_matrix,
                          best_fit_subspace)

# Guard on the assignment-enumeration size of brute_force.
_BRUTE_FORCE_LIMIT = 10**7


class SizeError(MessiError, ValueError):
    """A requested computation exceeds the supported instance size."""


def gram_eig_tail(points, j: int) -> float:
    """Best-fit cost of a j-dim linear subspace: sum of Gram eigenvalues beyond j."""
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    eig = np.linalg.eigvalsh(points.T @ points)  # ascending
    return float(np.sum(np.maximum(eig[: max(d - j, 0)], 0.0)))


def pointwise_cost(points, assignment, subspaces) -> float:
    """Clustering cost recomputed row by row from explicit projection residuals."""
    points = np.asarray(points, dtype=np.float64)
    total = 0.0
    for x, c in zip(points, assignment):
        b = subspaces[c].basis
        residual = x - b.T @ (b @ x)
        total += float(residual @ residual)
    return total


def naive_frobenius(a, b) -> float:
    """Frobenius distance by explicit double-loop summation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (a[i, j] - b[i, j]) ** 2
    return total**0.5


def best_dim_composition_cost(points, assignment, k: int, total_dims: int) -> float:
    """Minimum cost over all per-cluster dim compositions with the given sum.

    Every cluster gets between 1 and d dimensions; cost of a composition is
    the sum of per-cluster Gram eigenvalue tails.
    """
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    assignment = np.asarray(assignment)
    tails = []
    for c in range(k):
        block = points[assignment == c]
        tails.append([gram_eig_tail(block, j) if block.size else 0.0 for j in range(d + 1)])
    best = np.inf
    for combo in itertools.product(range(1, d + 1), repeat=k):
        if sum(combo) != total_dims:
            continue
        cost = sum(tails[c][j] for c, j in enumerate(combo))
        best = min(best, cost)
    return float(best)


def greedy_dims(spectra, total_dims: int) -> list[int]:
    """The reference dim split: from one dim per cluster, each further dim goes to
    the cluster whose next eigenvalue (row of spectra, descending) is largest,
    ties to the lowest cluster, one argmax per dim; a full cluster bids -inf."""
    k, d = spectra.shape
    dims = [1] * k
    for _ in range(total_dims - k):
        gains = [spectra[c, dims[c]] if dims[c] < d else -np.inf for c in range(k)]
        dims[int(np.argmax(gains))] += 1
    return dims


def canonical_partition(assignment) -> tuple:
    """Relabel cluster ids by order of first appearance (for up-to-relabel compares)."""
    mapping = {}
    out = []
    for c in assignment:
        c = int(c)
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return tuple(out)


def same_subspace(s1, s2, tol: float = 1e-8) -> bool:
    """Whether two subspaces coincide, compared via their projection operators."""
    p1 = s1.basis.T @ s1.basis
    p2 = s2.basis.T @ s2.basis
    return bool(np.max(np.abs(p1 - p2)) <= tol)


def reference_em_run(points, k, j, opts, restart_index=0, initial_assignment=None, threads=1):
    """em_run's loop with no reuse: every refit fits every cluster, every pass computes every column.

    Returns (clustering, healed): healed counts the loop's refits that started
    from an assignment with an empty cluster, so that the heal path ran.
    """
    points = as_matrix(points)
    n, d = points.shape
    dims = _check_dims(k, j, d)
    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, restart_index]))
    healed = 0
    with _one_blas_thread, _units(threads) as run:
        if initial_assignment is not None:
            assignment = _check_ids(initial_assignment, k, "initial_assignment", n)
            subspaces = _refit(points, assignment, dims, run)
        elif opts.init == "random-partition":
            subspaces = _refit(points, rng.integers(0, k, size=n), dims, run)
        else:  # sampled-rows
            samples = [rng.choice(n, size=min(dim, n), replace=False) for dim in dims]
            subspaces = run(lambda c: best_fit_subspace(points[samples[c]], dims[c]), range(k))

        norms_sq = _row_norms_sq(points)
        assignment, cost = _assign_and_cost(points, norms_sq, subspaces, run)
        history = [cost]
        iterations = 0
        converged = False
        for _ in range(opts.max_iters):
            iterations += 1
            healed += int(np.bincount(assignment, minlength=k).min() == 0)
            subspaces = _refit(points, assignment, dims, run)
            assignment, new_cost = _assign_and_cost(points, norms_sq, subspaces, run)
            history.append(new_cost)
            improved = cost - new_cost > opts.rel_tol * cost
            cost = new_cost
            if not improved:
                converged = True
                break
    clustering = Clustering(k=k, assignment=assignment, subspaces=tuple(subspaces), cost=cost,
                            iterations=iterations, converged=converged,
                            cost_history=tuple(history))
    return clustering, healed


def assign_step(points, subspaces) -> np.ndarray:
    """Map each row to its nearest subspace; ties go to the lowest index."""
    points = as_matrix(points)
    subspaces = _check_subspaces(subspaces, points.shape[1])
    return _assign_and_cost(points, _row_norms_sq(points), subspaces)[0]


def _iter_partitions(n: int, k: int):
    """Restricted growth strings of length n with at most k labels.

    Yields each partition of rows into at most k clusters exactly once, with
    labels canonicalized by order of first appearance.
    """
    a = [0] * n
    maxes = [0] * n  # maxes[i] = max(a[:i+1])
    yield a
    while True:
        i = n - 1
        while i > 0 and a[i] >= min(maxes[i - 1] + 1, k - 1):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        maxes[i] = max(maxes[i - 1], a[i])
        for z in range(i + 1, n):
            a[z] = 0
            maxes[z] = maxes[i]
        yield a


def brute_force(points, k: int, j: int) -> Clustering:
    """Globally optimal (k, j) clustering by exhaustive partition enumeration.

    Enumerates every assignment of n rows to k clusters up to relabeling and
    scores each cluster by the tail eigenvalue sum of its Gram matrix (the
    exact fit cost), memoized per row subset. Only feasible for k**n up
    to 10**7; larger instances raise SizeError.
    """
    points = as_matrix(points)
    n, d = points.shape
    dims = _check_dims(k, j, d)
    if k**n > _BRUTE_FORCE_LIMIT:
        raise SizeError(f"brute force infeasible: k^n = {k}^{n} exceeds {_BRUTE_FORCE_LIMIT}")

    cache: dict[bytes, float] = {}

    def block_cost(rows: np.ndarray) -> float:
        key = rows.tobytes()
        got = cache.get(key)
        if got is not None:
            return got
        block = points[rows]
        tail = float(np.sum(_gram_eigh(block.T @ block)[0][j:]))
        cache[key] = tail
        return tail

    best_cost = np.inf
    best_assignment: np.ndarray | None = None
    for labels in _iter_partitions(n, k):
        a = np.asarray(labels, dtype=np.int64)
        cost = 0.0
        for c in range(int(a.max()) + 1):
            cost += block_cost(np.flatnonzero(a == c))
            if cost >= best_cost:
                break
        if cost < best_cost:
            best_cost = cost
            best_assignment = a.copy()

    assert best_assignment is not None
    subspaces = _refit(points, best_assignment, dims)
    cost = clustering_cost(points, best_assignment, subspaces)
    return Clustering(
        k=k,
        assignment=best_assignment,
        subspaces=tuple(subspaces),
        cost=cost,
        iterations=0,
        converged=True,
        cost_history=(cost,),
    )


def dense_u(sa) -> np.ndarray:
    """Materialize a SparseAssembly's U_sparse as a dense n x total_dims array."""
    widths = sa.row_widths()
    rows = np.repeat(np.arange(sa.n), widths)
    within = np.arange(rows.size) - np.repeat(np.cumsum(widths) - widths, widths)
    u = np.zeros((sa.n, sa.total_dims))
    u[rows, sa.col_offsets[rows] + within] = sa.values[sa.row_starts[rows] + within]
    return u


def gathered_lookup(f, ids) -> np.ndarray:
    """lookup(f, ids) without dedup: per cluster, b.u[positions] @ b.v over every
    id that cluster receives, repeats included, rows in ids order."""
    ids = np.asarray(ids, dtype=np.int64)
    out = np.empty((ids.size, f.d))
    clusters = f.assignment[ids]
    for c, b in enumerate(f.blocks):
        sel = np.flatnonzero(clusters == c)
        out[sel] = b.u[f.positions[ids[sel]]] @ b.v
    return out


def save_bundle_v1(f, directory, *, seed=0, cost=0.0, iterations=0, converged=True) -> None:
    """Write f as a format-1 bundle, the layout load_bundle refuses: meta.json
    with format_version 1, assignment.npy and one u_c.npy and one v_c.npy per cluster."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    meta = dict(format_version=1, n=f.n, d=f.d, k=f.k, dims=list(f.dims), q=2.0, seed=seed,
                cost=cost, iterations=iterations, converged=converged)
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    np.save(os.path.join(directory, "assignment.npy"), f.assignment.astype("<i8"))
    for c, b in enumerate(f.blocks):
        np.save(os.path.join(directory, f"u_{c}.npy"), b.u.astype("<f8"))
        np.save(os.path.join(directory, f"v_{c}.npy"), b.v.astype("<f8"))
