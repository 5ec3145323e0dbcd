"""Two-layer factorization built from a clustering, plus parameter accounting.

A clustering of the rows of A among k subspaces turns into one coefficient
block U^i (n_i x j_i) and one basis block V^i (j_i x d) per cluster; stacking
the V blocks and placing the U blocks in a block-sparse n x (sum j_i) matrix
reproduces A row-for-row as U_sparse @ V_stacked. Each number is stored once,
in a cluster-major coefficient buffer (U^0, U^1, ... back to back) and the
stacked bases. The assignment is the only record of the partition; the
blocks, row positions and the sparse layer's row_starts derive from it.

The compressed layer's forward pass is lookup(f, ids): it groups the ids by
cluster and runs one (rows x j_i) @ (j_i x d) product per cluster, finding
each row's coefficients through the per-row position index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import Clustering, _check_assignment, _cluster_rows, _units
from .errors import ParameterError
from .linalg import CHUNK_ROWS, ORTHONORMALITY_TOL, _one_blas_thread, as_matrix, orthonormality_residual

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
    """One cluster's row_ids (ascending) and factor pair, u (n_i x j_i) and
    v (j_i x d), as read-only views of its factorization's buffers."""

    row_ids: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class MessiFactorization:
    """Per-cluster factor pairs whose union reconstructs an n x d matrix.

    values is every coefficient once, cluster-major: blocks[0].u row-major
    with its rows ascending, then blocks[1].u, and so on; v_stacked
    (sum(dims) x d) is blocks[0].v, blocks[1].v, ... The three arrays are
    taken without a copy and kept read-only. blocks (views of the buffers)
    and positions derive from assignment: row z is
    blocks[assignment[z]].u[positions[z]]. Each v block has orthonormal rows,
    so u @ v is the projection of the cluster's rows onto its subspace.
    """

    n: int
    d: int
    k: int
    dims: tuple[int, ...]
    assignment: np.ndarray
    values: np.ndarray
    v_stacked: np.ndarray
    blocks: tuple[Block, ...] = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(j) for j in self.dims))
        for name, dtype in (("assignment", np.int64), ("values", float), ("v_stacked", float)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        blocks, positions = _derive_blocks(self)
        positions.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "positions", positions)

    def param_count(self) -> int:
        """Stored values: sum(n_i * j_i) + sum(j_i * d)."""
        return self.values.size + self.v_stacked.size

    def compression_rate(self) -> float:
        """1 - params / (n * d); larger is smaller."""
        return 1.0 - self.param_count() / (self.n * self.d)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.row_ids.size for b in self.blocks)


def _block_views(values, v_stacked, sizes, dims) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cluster c's (u, v) views of the two buffers: u is sizes[c] x dims[c], v dims[c] x d."""
    us = np.split(values, np.cumsum(np.multiply(sizes, dims))[:-1])
    vs = np.split(v_stacked, np.cumsum(dims)[:-1])
    return [(u.reshape(s, j), v) for u, v, s, j in zip(us, vs, sizes, dims)]


def _derive_blocks(f: MessiFactorization) -> tuple[tuple[Block, ...], np.ndarray]:
    """Check the invariants; return the blocks and each row's position inside its block."""
    if f.n < 1 or f.d < 1:
        raise ParameterError(f"factorization needs n >= 1 and d >= 1, got n={f.n}, d={f.d}")
    if f.k < 1 or len(f.dims) != f.k or min(f.dims) < 0:
        raise ParameterError(f"expected {f.k} nonnegative dims, got {f.dims}")
    rows = _cluster_rows(_check_assignment(f.assignment, f.n, f.k), f.k)
    sizes = [ids.size for ids in rows]
    shapes = {"values": (int(np.dot(sizes, f.dims)),), "v_stacked": (sum(f.dims), f.d)}
    for name, shape in shapes.items():
        if getattr(f, name).shape != shape:
            raise ParameterError(f"{name} has shape {getattr(f, name).shape}, expected {shape}")
    views = _block_views(f.values, f.v_stacked, sizes, f.dims)
    positions = np.empty(f.n, dtype=np.int64)
    blocks = []
    for c, (ids, (u, v)) in enumerate(zip(rows, views)):
        positions[ids] = np.arange(ids.size)
        dev = orthonormality_residual(v)
        if not dev <= ORTHONORMALITY_TOL:
            raise ParameterError(f"block {c} v rows are not orthonormal (max deviation {dev:.3e})")
        blocks.append(Block(row_ids=ids, u=u, v=v))
    return tuple(blocks), positions


@dataclass(frozen=True, eq=False)
class SparseAssembly:
    """Block-sparse U next to the stacked V, realizing A ~ U_sparse @ V_stacked.

    U_sparse is n x total_dims but stores only each row's run of nonzeros:
    row z holds values[row_starts[z]:][:w], w = row_widths()[z], in the w
    columns from col_offsets[z] (its cluster's offsets[c]) on. values and
    v_stacked are the factorization's own buffers; values is cluster-major,
    so a cluster's runs sit back to back in ascending row order.
    """

    n: int
    total_dims: int
    dims: np.ndarray
    offsets: np.ndarray
    assignment: np.ndarray
    col_offsets: np.ndarray
    row_starts: np.ndarray
    values: np.ndarray
    v_stacked: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.total_dims)

    def row_widths(self) -> np.ndarray:
        """Structural nonzero count of each U row."""
        return self.dims[self.assignment]

    def product(self) -> np.ndarray:
        """U_sparse @ V_stacked from the sparse rows only: one GEMM per cluster,
        over the cluster's runs as one contiguous slice of values."""
        out = np.zeros((self.n, self.v_stacked.shape[1]))
        for c, (start, width) in enumerate(zip(self.offsets, self.dims)):
            rows = np.flatnonzero(self.assignment == c)
            if width and rows.size:
                base = self.row_starts[rows[0]]
                runs = self.values[base : base + rows.size * width].reshape(rows.size, width)
                out[rows] = runs @ self.v_stacked[start : start + width]
        return out


def build_factorization(a, clustering: Clustering, threads: int = 1) -> MessiFactorization:
    """Group rows by cluster and factor each group over its fitted subspace.

    v_stacked is clustering.bases itself. Row z of cluster c contributes
    basis_c @ row to u, written straight into u's slice of values. The
    products run as pinned (cluster, chunk of CHUNK_ROWS rows) units, as EM's
    do, so no cluster is copied whole and the bits depend on neither threads
    nor the BLAS thread count. Each multiplies by basis_c.T copied row-major,
    the layout of EM's fits, as OpenBLAS rounds small products per layout.
    """
    a = as_matrix(a)
    n, d = a.shape
    shape = (clustering.assignment.shape[0], clustering.bases.shape[1])
    if shape != (n, d):
        raise ParameterError(f"clustering covers a {shape[0]}x{shape[1]} matrix, got {n}x{d}")
    rows = _cluster_rows(clustering.assignment, clustering.k)
    sizes, dims = [ids.size for ids in rows], [s.dim for s in clustering.subspaces]
    values = np.empty(np.dot(sizes, dims))
    views = _block_views(values, clustering.bases, sizes, dims)
    # One unit per (cluster, chunk): the chunk's row ids, its basis and its rows of u.
    units = [(ids[s : s + CHUNK_ROWS], v, u[s : s + CHUNK_ROWS])
             for ids, (u, v) in zip(rows, views) for s in range(0, ids.size, CHUNK_ROWS)]
    with _one_blas_thread, _units(threads) as run:
        run(lambda unit: np.matmul(a[unit[0]], np.ascontiguousarray(unit[1].T), out=unit[2]), units)
    return MessiFactorization(n=n, d=d, k=clustering.k, dims=dims, assignment=clustering.assignment,
                              values=values, v_stacked=clustering.bases)


def assemble_sparse(f: MessiFactorization) -> SparseAssembly:
    """The block-sparse layout over f's own buffers; no float is copied.

    Row z of cluster c has dims[c] nonzeros, starting at row_starts[z] =
    block_base[c] + positions[z] * dims[c], block_base[c] being u_c's offset.
    """
    dims = np.asarray(f.dims, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(dims)[:-1]))
    block_base = np.concatenate(([0], np.cumsum(np.multiply(f.block_sizes(), dims))[:-1]))
    return SparseAssembly(
        n=f.n, total_dims=int(dims.sum()), dims=dims, offsets=offsets, assignment=f.assignment,
        col_offsets=offsets[f.assignment],
        row_starts=block_base[f.assignment] + f.positions * dims[f.assignment],
        values=f.values, v_stacked=f.v_stacked,
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
