"""Independent oracles used to freeze and check expected values.

None of these reuse the library's code paths (which fit subspaces from
`eigh` of each cluster's Gram matrix): fit costs come from `eigvalsh`
eigenvalue tails, distances from explicit projection residuals, and optima
from exhaustive enumeration. The one exception is `reference_em_run`, which
drives the library's own refit and assignment steps without any reuse, to
check that reuse changes no bit.
"""

import itertools

import numpy as np

from messi.cluster import (
    _COST_EPS,
    Clustering,
    _assign_and_cost,
    _check_assignment,
    _check_dims,
    _refit,
    _units,
)
from messi.linalg import _one_blas_thread, _row_norms_sq, as_matrix, best_fit_subspace


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
            subspaces = _refit(points, _check_assignment(initial_assignment, n, k), dims, run)
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
            improvement = (cost - new_cost) / max(cost, _COST_EPS)
            cost = new_cost
            if improvement < opts.rel_tol:
                converged = True
                break
    clustering = Clustering(k=k, assignment=assignment, subspaces=tuple(subspaces), cost=cost,
                            iterations=iterations, converged=converged,
                            cost_history=tuple(history))
    return clustering, healed
