"""Two-layer factorization built from a clustering, plus parameter accounting.

A clustering of the rows of A among k subspaces turns into one coefficient
block U^i (n_i x j_i) and one basis block V^i (j_i x d) per cluster; stacking
the V blocks and scattering the U blocks into a block-sparse n x (sum j_i)
matrix reproduces A row-for-row as U_sparse @ V_stacked. Rows keep their
original indices throughout; the assignment list is the single source of
truth for the sparse pattern.

The compressed layer's forward pass is lookup(f, ids): it groups the ids by
cluster and runs one (rows x j_i) @ (j_i x d) product per cluster, finding
each row's coefficients through the per-row position index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import Clustering
from .errors import ParameterError
from .linalg import ORTHONORMALITY_TOL, as_matrix

__all__ = [
    "Block",
    "MessiFactorization",
    "SparseAssembly",
    "build_factorization",
    "assemble_sparse",
    "lookup",
    "reconstruct",
    "param_count",
    "svd_baseline_params",
    "equal_budget_j",
]


@dataclass(frozen=True, eq=False)
class Block:
    """One cluster's factor pair: row_ids (sorted), u (n_i x j_i), v (j_i x d)."""

    row_ids: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_ids", np.asarray(self.row_ids, dtype=np.int64))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class MessiFactorization:
    """Per-cluster factor blocks whose union reconstructs an n x d matrix.

    The blocks' row_ids partition {0, ..., n-1}; assignment is the inverse
    map. Each v block has orthonormal rows, so u rows are projection
    coefficients and u @ v is the projection of the cluster's rows onto its
    subspace. positions is the row index inside the block: row z is
    blocks[assignment[z]].u[positions[z]].
    """

    n: int
    d: int
    k: int
    dims: tuple[int, ...]
    blocks: tuple[Block, ...]
    assignment: np.ndarray
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64).copy()
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "dims", tuple(int(j) for j in self.dims))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        positions = _validate_factorization(self)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)

    def param_count(self) -> int:
        """Stored values across all blocks: sum(n_i * j_i) + sum(j_i * d)."""
        return sum(b.u.size + b.v.size for b in self.blocks)

    def compression_rate(self) -> float:
        """1 - params / (n * d); larger is smaller."""
        return 1.0 - self.param_count() / (self.n * self.d)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.row_ids.size for b in self.blocks)


def _cluster_rows(assignment: np.ndarray, k: int) -> list[np.ndarray]:
    """Each cluster's row ids, ascending, from one stable argsort of ids in [0, k)."""
    order = np.argsort(assignment, kind="stable")
    return np.split(order, np.cumsum(np.bincount(assignment, minlength=k))[:-1])


def _validate_factorization(f: MessiFactorization) -> np.ndarray:
    """Check the invariants and return each row's position inside its block."""
    if f.n < 1 or f.d < 1:
        raise ParameterError(f"factorization needs n >= 1 and d >= 1, got n={f.n}, d={f.d}")
    if f.k < 1 or len(f.blocks) != f.k or len(f.dims) != f.k:
        raise ParameterError(f"expected {f.k} blocks and dims, got {len(f.blocks)}/{len(f.dims)}")
    if f.assignment.shape != (f.n,):
        raise ParameterError(f"assignment must have length n={f.n}")
    if f.assignment.min() < 0 or f.assignment.max() >= f.k:
        raise ParameterError(f"assignment contains ids outside [0, {f.k})")
    positions = np.empty(f.n, dtype=np.int64)
    # Equal to the assignment's clusters, the row_ids are sorted, disjoint and cover all rows.
    for c, (b, ids) in enumerate(zip(f.blocks, _cluster_rows(f.assignment, f.k))):
        if not np.array_equal(b.row_ids, ids):
            raise ParameterError(f"assignment disagrees with block {c} row_ids")
        positions[ids] = np.arange(ids.size)
        j = f.dims[c]
        if b.u.shape != (ids.size, j):
            raise ParameterError(f"block {c} u has shape {b.u.shape}, expected {(ids.size, j)}")
        if b.v.shape != (j, f.d):
            raise ParameterError(f"block {c} v has shape {b.v.shape}, expected {(j, f.d)}")
        if j > 0:
            dev = float(np.max(np.abs(b.v @ b.v.T - np.eye(j))))
            if dev > ORTHONORMALITY_TOL:
                raise ParameterError(f"block {c} v rows are not orthonormal (max deviation {dev:.3e})")
    return positions


@dataclass(frozen=True, eq=False)
class SparseAssembly:
    """Block-sparse U next to the stacked V, realizing A ~ U_sparse @ V_stacked.

    U_sparse is n x total_dims but stores only each row's contiguous run of
    nonzeros: row z holds row_widths[z] values starting at column
    col_offsets[z] (the offset of its cluster's block). Every other entry is
    a structural zero. V_stacked is the dense (total_dims x d) stack of the
    per-cluster bases; offsets[c] is the first column of cluster c.
    """

    n: int
    total_dims: int
    col_offsets: np.ndarray
    indptr: np.ndarray
    values: np.ndarray
    v_stacked: np.ndarray
    offsets: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.total_dims)

    def row_widths(self) -> np.ndarray:
        """Structural nonzero count of each U row."""
        return np.diff(self.indptr)

    def u_dense(self) -> np.ndarray:
        """Materialize U_sparse as a dense n x total_dims array."""
        rows = np.repeat(np.arange(self.n), self.row_widths())
        cols = self.col_offsets[rows] + np.arange(self.values.size) - self.indptr[rows]
        u = np.zeros((self.n, self.total_dims))
        u[rows, cols] = self.values
        return u

    def product(self) -> np.ndarray:
        """U_sparse @ V_stacked computed from the sparse rows only, one GEMM per cluster.

        A cluster of width 0 shares its offset with the next cluster, so a
        cluster's rows are those with both its offset and its width.
        """
        out = np.zeros((self.n, self.v_stacked.shape[1]))
        widths = self.row_widths()
        ends = np.append(self.offsets[1:], self.total_dims)
        for start, width in zip(self.offsets, ends - self.offsets):
            if width == 0:
                continue
            rows = np.flatnonzero((self.col_offsets == start) & (widths == width))
            runs = self.values[self.indptr[rows][:, None] + np.arange(width)]
            out[rows] = runs @ self.v_stacked[start : start + width]
        return out


def build_factorization(a, clustering: Clustering) -> MessiFactorization:
    """Group rows by cluster and factor each group over its fitted subspace.

    Row z of cluster c contributes coefficients basis_c @ row to u, so
    u @ v is the orthogonal projection of the cluster's rows.
    """
    a = as_matrix(a)
    n, d = a.shape
    if clustering.assignment.shape != (n,):
        raise ParameterError(
            f"clustering covers {clustering.assignment.shape[0]} rows, matrix has {n}"
        )
    for s in clustering.subspaces:
        if s.ambient != d:
            raise ParameterError(f"subspace ambient {s.ambient} does not match matrix columns {d}")
    blocks = []
    for s, ids in zip(clustering.subspaces, _cluster_rows(clustering.assignment, clustering.k)):
        blocks.append(Block(row_ids=ids, u=a[ids] @ s.basis.T, v=s.basis))
    return MessiFactorization(
        n=n,
        d=d,
        k=clustering.k,
        dims=tuple(s.dim for s in clustering.subspaces),
        blocks=tuple(blocks),
        assignment=clustering.assignment,
    )


def assemble_sparse(f: MessiFactorization) -> SparseAssembly:
    """Scatter the U blocks into the block-sparse layout and stack the V blocks.

    Row z gets exactly dims[assignment[z]] structural nonzeros, located in its
    cluster's column block; the nonzero total is sum(n_i * j_i).
    """
    offsets = np.concatenate(([0], np.cumsum(f.dims)))[: f.k].astype(np.int64)
    total = int(sum(f.dims))
    widths = np.asarray(f.dims, dtype=np.int64)[f.assignment]
    indptr = np.concatenate(([0], np.cumsum(widths))).astype(np.int64)
    values = np.zeros(int(indptr[-1]))
    for c, b in enumerate(f.blocks):
        if b.row_ids.size == 0 or f.dims[c] == 0:
            continue
        starts = indptr[b.row_ids]
        pos = starts[:, None] + np.arange(f.dims[c])[None, :]
        values[pos.ravel()] = b.u.ravel()
    v_stacked = (
        np.vstack([b.v for b in f.blocks]) if total else np.empty((0, f.d))
    )
    return SparseAssembly(
        n=f.n,
        total_dims=total,
        col_offsets=offsets[f.assignment],
        indptr=indptr,
        values=values,
        v_stacked=v_stacked,
        offsets=offsets,
    )


def lookup(f: MessiFactorization, ids) -> np.ndarray:
    """Forward pass of the compressed layer: row i is the reconstruction of row ids[i].

    ids is a 1-D integer array of row indices in [0, n) (an empty list also
    passes); repeats and any order are allowed, and negative ids are rejected
    rather than wrapped. The ids are grouped by cluster, and each cluster's
    coefficient rows go through its basis as one GEMM, so the result equals
    reconstruct(f)[ids].
    """
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ParameterError(
            f"ids must be a 1-D integer array, got shape {ids.shape} of dtype {ids.dtype}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= f.n):
        raise ParameterError(f"ids must lie in [0, {f.n}), got [{ids.min()}, {ids.max()}]")
    ids = ids.astype(np.int64, copy=False)
    out = np.empty((ids.size, f.d))
    clusters = f.assignment[ids]
    for c, b in enumerate(f.blocks):
        sel = np.flatnonzero(clusters == c)
        out[sel] = b.u[f.positions[ids[sel]]] @ b.v
    return out


def reconstruct(f: MessiFactorization) -> np.ndarray:
    """The full n x d reconstruction; row z equals lookup(f, [z])[0]."""
    out = np.zeros((f.n, f.d))
    for b in f.blocks:
        if b.row_ids.size:
            out[b.row_ids] = b.u @ b.v
    return out


def param_count(n: int, d: int, k: int, dims, cluster_sizes=None) -> int:
    """Stored values of the two-layer representation: sum(n_i j_i) + d sum(j_i).

    dims may be a single uniform dimension or a per-cluster list. Without
    cluster_sizes the dims must be uniform (every row then stores j
    coefficients, giving n j + k j d); per-cluster sizes are needed otherwise.
    """
    if isinstance(dims, (int, np.integer)):
        dims = [int(dims)] * k
    dims = [int(j) for j in dims]
    if len(dims) != k:
        raise ParameterError(f"expected {k} dims, got {len(dims)}")
    if any(j < 0 for j in dims):
        raise ParameterError("dims must be nonnegative")
    if cluster_sizes is None:
        if len(set(dims)) > 1:
            raise ParameterError("cluster_sizes is required when dims are not uniform")
        return n * dims[0] + d * sum(dims)
    sizes = [int(s) for s in cluster_sizes]
    if len(sizes) != k:
        raise ParameterError(f"expected {k} cluster sizes, got {len(sizes)}")
    if sum(sizes) != n:
        raise ParameterError(f"cluster sizes sum to {sum(sizes)}, expected n={n}")
    return sum(s * j for s, j in zip(sizes, dims)) + d * sum(dims)


def svd_baseline_params(n: int, d: int, j: int) -> int:
    """Stored values of the plain rank-j factor pair: j * (n + d)."""
    if j < 0:
        raise ParameterError("rank must be nonnegative")
    return j * (n + d)


def equal_budget_j(n: int, d: int, k: int, budget: int) -> int:
    """Largest uniform dimension whose k-cluster parameter count fits the budget.

    param_count grows as j * (n + k d), so this is floor(budget / (n + k d)).
    """
    per_dim = n + k * d
    if budget < per_dim:
        raise ParameterError(f"budget {budget} cannot afford j=1 (needs {per_dim})")
    return budget // per_dim
