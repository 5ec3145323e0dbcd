"""(k, j)-projective clustering by Expectation-Maximization with restarts.

The objective: place k linear subspaces of dimension j so that the sum over
rows of the squared distance to the nearest subspace is minimal. Finding the
global optimum is hard even in tiny dimensions, so `em_run` alternates a
nearest-subspace assignment step with a per-cluster refit from the top
eigenvectors of the cluster's d x d Gram matrix X_c^T X_c, which never
increases the cost, and `em_multi_restart` keeps the best of several seeded
local minima. `refit_step` and `clustering_cost` expose one M-step and the
objective on their own.

Randomness: every restart draws from its own PCG64 stream seeded with
SeedSequence([seed, restart_index]), so results are independent of execution
order.

Threads: `em_run` and `em_multi_restart` hold OpenBLAS at one thread and
take their parallelism from one pool that runs fixed work units: the
restarts, and inside a restart the assignment pass's row chunks of
CHUNK_ROWS rows and the k per-cluster fits. No step copies a whole cluster:
each pass over rows reads them in the same fixed chunks. Every unit is
computed the same way whichever thread runs it, and chunk sums are added in
chunk order, so the output bits are identical for every `threads` value and,
when numpy's OpenBLAS is found, for every BLAS thread count. `allocate_dims`
and `build_factorization` run pinned the same way, so a `compress` bundle is
too; `refit_step` and `clustering_cost` run at the BLAS's own thread count.

Reuse: a fit is a deterministic function of its rows, so `em_run` keeps the
fit of each non-empty cluster whose rows are those of its last fit and the
distance column of each kept fit; the bits are those of refitting everything.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .linalg import (
    CHUNK_ROWS,
    Subspace,
    _check_ids,
    _distances_sq,
    _gram,
    _gram_eigh,
    _one_blas_thread,
    _row_norms_sq,
    _subspace_view,
    as_matrix,
    best_fit_subspace,
)

INIT_METHODS = ("random-partition", "sampled-rows")


def _serial_map(fn, items) -> list:
    return [fn(item) for item in items]


@contextmanager
def _units(threads: int):
    """Yield a map(fn, items) that runs each item as one work unit on a pool of
    threads workers (in the calling thread for threads <= 1). Results come back
    in item order.
    """
    if threads <= 1:
        yield _serial_map
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


@dataclass(frozen=True)
class EmOptions:
    """Hyperparameters of the EM search. The defaults are plumbing choices.

    init:
        "random-partition" assigns every row an independent uniform cluster id;
        "sampled-rows" seeds each subspace with the span of j sampled rows.
    """

    restarts: int = 16
    max_iters: int = 100
    rel_tol: float = 1e-6
    seed: int = 0
    init: str = "random-partition"

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ParameterError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")
        if self.init not in INIT_METHODS:
            raise ParameterError(f"init must be one of {INIT_METHODS}, got {self.init!r}")


@dataclass(frozen=True, eq=False)
class Clustering:
    """A partition of n rows among k subspaces together with its achieved cost.

    assignment (integer ids in [0, k), one per row; no floats) is kept as a read-only copy.
    cost_history holds the objective after every completed EM iteration
    (index 0 is the post-initialization cost); it is nonincreasing. bases
    holds every basis once, as one read-only (sum(dims), d) copy of the given
    subspaces' bases; each subspaces[c].basis is a view of its rows, not
    checked again, since each given Subspace was checked when it was made.

    q is always 2 (the cost sums squared distances); any other value raises
    ParameterError. The field stays only for callers that still pass q=2.0.
    """

    k: int
    assignment: np.ndarray
    subspaces: tuple[Subspace, ...]
    cost: float
    iterations: int
    converged: bool
    cost_history: tuple[float, ...] = ()
    q: float = 2.0
    bases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.q != 2.0:
            raise ParameterError(f"only squared distances are supported, got q={self.q}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        subspaces = tuple(self.subspaces)
        if len(subspaces) != self.k:
            raise ParameterError(f"expected {self.k} subspaces, got {len(subspaces)}")
        d = subspaces[0].ambient
        dims = [s.dim for s in _check_subspaces(subspaces, d)]
        a = _check_ids(self.assignment, self.k, "assignment").copy()
        a.flags.writeable = False
        bases = np.concatenate([s.basis for s in subspaces], out=np.empty((sum(dims), d)))
        bases.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "subspaces",
                           tuple(map(_subspace_view, np.split(bases, np.cumsum(dims)[:-1]))))
        object.__setattr__(self, "cost_history", tuple(self.cost_history))


def _cluster_rows(assignment: np.ndarray, k: int) -> list[np.ndarray]:
    """Each cluster's row ids, ascending, from one stable argsort of ids in [0, k)."""
    order = np.argsort(assignment, kind="stable")
    order.flags.writeable = False
    return np.split(order, np.cumsum(np.bincount(assignment, minlength=k))[:-1])


def _check_subspaces(subspaces, d: int) -> tuple[Subspace, ...]:
    subspaces = tuple(subspaces)
    if not subspaces:
        raise ParameterError("need at least one subspace")
    for s in subspaces:
        if s.ambient != d:
            raise ParameterError(f"subspace ambient {s.ambient} does not match point dimension {d}")
    return subspaces


def _check_dims(k: int, j: int | Sequence[int], d: int) -> list[int]:
    """Per-cluster dims from one shared j or a list of k, each in [1, d]."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    dims = [j] * k if isinstance(j, (int, np.integer)) else list(j)
    if len(dims) != k:
        raise ParameterError(f"expected {k} per-cluster dims, got {len(dims)}")
    for dim in dims:
        if not 1 <= dim <= d:
            raise ParameterError(f"j must lie in [1, {d}], got {dim}")
    return dims


def _assign_and_cost(points: np.ndarray, norms_sq: np.ndarray, subspaces, run=_serial_map,
                     dists: np.ndarray | None = None, kept=None) -> tuple[np.ndarray, float]:
    """Nearest-subspace assignment and its cost from one n x k distance pass.

    The pass runs over fixed chunks of CHUNK_ROWS rows; the chunk costs are
    added in chunk order. dists, when given, is an n x k buffer; where the
    boolean mask kept is True, its column already holds that subspace's
    distances, and only the other columns are computed.
    """
    dists = np.empty((points.shape[0], len(subspaces))) if dists is None else dists
    stale = [c for c in range(len(subspaces)) if kept is None or not kept[c]]

    def chunk(start: int):
        rows = slice(start, start + CHUNK_ROWS)
        for c in stale:
            dists[rows, c] = _distances_sq(points[rows], norms_sq[rows], subspaces[c])
        return np.argmin(dists[rows], axis=1), float(np.sum(np.min(dists[rows], axis=1)))

    ids, costs = zip(*run(chunk, range(0, points.shape[0], CHUNK_ROWS)))
    return np.concatenate(ids).astype(np.int64, copy=False), sum(costs)


def _own_distances_sq(points: np.ndarray, members: list[np.ndarray], subspaces) -> np.ndarray:
    """Each row's squared distance to its cluster's subspace, read CHUNK_ROWS ids at a time."""
    dists = np.empty(points.shape[0])
    for ids, s in zip(members, subspaces):
        for start in range(0, ids.size, CHUNK_ROWS):
            chunk = ids[start : start + CHUNK_ROWS]
            rows = points[chunk]
            dists[chunk] = _distances_sq(rows, _row_norms_sq(rows), s)
    return dists


def clustering_cost(points, assignment, subspaces) -> float:
    """Sum over rows of the squared distance to subspaces[assignment[row]], cluster by cluster."""
    points = as_matrix(points)
    n, d = points.shape
    subspaces = _check_subspaces(subspaces, d)
    members = _cluster_rows(_check_ids(assignment, len(subspaces), "assignment", n), len(subspaces))
    dists = _own_distances_sq(points, members, subspaces)
    return sum(float(np.sum(dists[ids])) for ids in members)


def _refit(points: np.ndarray, assignment: np.ndarray, dims: list[int],
           run=_serial_map, prior=None, kept=None) -> list[Subspace]:
    """Per-cluster best-fit refit with farthest-point healing of empty clusters.

    Each cluster's fit is one work unit; the healing runs serially after them,
    and both read rows in CHUNK_ROWS chunks. Where the boolean mask kept is
    True, prior[c] is a fit of exactly cluster c's rows and is returned as it is.
    """
    d = points.shape[1]
    k = len(dims)
    members = _cluster_rows(assignment, k)

    def fit(c: int) -> Subspace | None:
        if kept is not None and kept[c]:
            return prior[c]
        return best_fit_subspace(points, dims[c], members[c]) if members[c].size else None

    subspaces = run(fit, range(k))
    empty = [c for c in range(k) if subspaces[c] is None]
    if empty:
        # Reseed each empty cluster from the rows farthest from their current
        # fit, excluding rows already consumed by a previous heal.
        order = np.argsort(-_own_distances_sq(points, members, subspaces), kind="stable")
        cursor = 0
        for c in empty:
            take = order[cursor : cursor + dims[c]]
            cursor += dims[c]
            if take.size == 0:
                # Placeholder for a cluster with no rows: canonical axes, zero energy.
                subspaces[c] = Subspace(np.eye(d)[:dims[c]])
            else:
                subspaces[c] = best_fit_subspace(points, dims[c], take)
    return subspaces  # type: ignore[return-value]


def refit_step(points, assignment, k: int, j: int | Sequence[int]) -> list[Subspace]:
    """Best-fit subspace of each cluster's rows (the M-step).

    j is one dimension for every cluster or a list of k per-cluster
    dimensions. Never increases the cost for a fixed assignment. Empty
    clusters are reseeded from the rows currently farthest from their own fit;
    clusters with rank below their dimension get deterministically padded
    bases with zero energy.
    """
    points = as_matrix(points)
    n, d = points.shape
    dims = _check_dims(k, j, d)
    return _refit(points, _check_ids(assignment, k, "assignment", n), dims)


def em_run(points, k: int, j: int | Sequence[int], opts: EmOptions, restart_index: int = 0,
           initial_assignment=None, threads: int = 1) -> Clustering:
    """One seeded EM descent to a local minimum of the (k, j) clustering cost.

    j is one dimension for every cluster or a list of k per-cluster
    dimensions. Alternates a best-fit refit of every cluster with a
    nearest-subspace assignment of every row until an iteration lowers the
    cost by at most opts.rel_tol times itself or opts.max_iters is reached. The
    returned assignment always comes from a final assignment pass, so at
    convergence no row strictly improves by switching clusters.

    A refit keeps the fit of each non-empty cluster that no row entered or
    left since that fit, and only new fits get their distances recomputed, so
    an iteration that moves no row computes no fit and no distance.

    initial_assignment, when given, overrides opts.init (useful for warm
    starts and for reproducing planted partitions). threads runs the row
    chunks and the per-cluster fits in parallel; the result does not depend
    on it.
    """
    points = as_matrix(points)
    n, d = points.shape
    dims = _check_dims(k, j, d)
    if n < k:
        raise ParameterError(f"need at least k={k} rows, got {n}")

    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, restart_index]))
    with _one_blas_thread, _units(threads) as run:
        fitted_from = None  # the assignment the current subspaces were fit from
        if initial_assignment is not None:
            fitted_from = _check_ids(initial_assignment, k, "initial_assignment", n)
        elif opts.init == "random-partition":
            fitted_from = rng.integers(0, k, size=n)
        if fitted_from is None:  # sampled-rows
            samples = [rng.choice(n, size=min(dim, n), replace=False) for dim in dims]
            subspaces = run(lambda c: best_fit_subspace(points, dims[c], samples[c]), range(k))
        else:
            subspaces = _refit(points, fitted_from, dims, run)

        norms_sq = _row_norms_sq(points)
        dists = np.empty((n, k))
        assignment, cost = _assign_and_cost(points, norms_sq, subspaces, run, dists)
        history = [cost]
        iterations = 0
        converged = False
        for _ in range(opts.max_iters):
            iterations += 1
            kept = None
            if fitted_from is not None:
                # A non-empty cluster that no moved row leaves or enters keeps its fit.
                moved = assignment != fitted_from
                kept = np.bincount(assignment, minlength=k) > 0
                kept[assignment[moved]] = kept[fitted_from[moved]] = False
            fitted_from = assignment
            subspaces = _refit(points, assignment, dims, run, subspaces, kept)
            assignment, new_cost = _assign_and_cost(points, norms_sq, subspaces, run, dists, kept)
            history.append(new_cost)
            improved = cost - new_cost > opts.rel_tol * cost  # no absolute floor: scale-free
            cost = new_cost
            if not improved:
                converged = True
                break
    return Clustering(
        k=k,
        assignment=assignment,
        subspaces=tuple(subspaces),
        cost=cost,
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
    )


def em_multi_restart(points, k: int, j: int | Sequence[int], opts: EmOptions,
                     threads: int = 1) -> Clustering:
    """Minimum-cost result of opts.restarts independent EM runs.

    j is shared or per-cluster, as in em_run. Restart i uses the stream
    derived from (opts.seed, i), so the outcome is a pure function of
    (points, k, j, opts) no matter how many threads run it.
    The threads work whole restarts, or, with one restart, that restart's row
    chunks and fits. Cost ties break toward the lowest restart index; with
    k = 1 every restart ends on the fit of all rows, so only restart 0 runs.
    """
    points = as_matrix(points)
    if opts.restarts == 1 or k == 1:
        return em_run(points, k, j, opts, 0, threads=threads)
    indices = range(opts.restarts)
    with _one_blas_thread, _units(threads) as run:
        results = run(lambda i: em_run(points, k, j, opts, i), indices)
    best = min(indices, key=lambda i: (results[i].cost, i))
    return results[best]


def allocate_dims(points, assignment, total_dims: int, k: int) -> list[int]:
    """Split of a total dimension budget across clusters, by largest tail eigenvalue.

    Every cluster starts at one dimension; the other total_dims - k go to the
    largest squared singular values past each cluster's first (ties to the
    lower cluster). Spectra are sorted, so this is the optimal greedy split.
    """
    points = as_matrix(points)
    n, d = points.shape
    a = _check_ids(assignment, k, "assignment", n)
    if total_dims < k:
        raise ParameterError(f"total_dims {total_dims} cannot cover {k} clusters at one dim each")
    if total_dims > k * d:
        raise ParameterError(f"total_dims {total_dims} exceeds k*d = {k * d}")

    # Per-cluster squared singular values, descending; an empty cluster's are 0.
    spectra = np.zeros((k, d))
    with _one_blas_thread:
        for c, ids in enumerate(_cluster_rows(a, k)):
            if ids.size:
                spectra[c] = _gram_eigh(_gram(points, ids))[0]

    picked = np.argsort(-spectra[:, 1:], axis=None, kind="stable")[:total_dims - k]
    return (1 + np.bincount(picked // max(d - 1, 1), minlength=k)).tolist()
