"""Two-layer factorization built from a clustering, plus parameter accounting.

A clustering of the rows of A among k subspaces turns into one coefficient
block U^i (n_i x j_i) and one basis block V^i (j_i x d) per cluster; stacking
the V blocks and placing the U blocks in a block-sparse n x (sum j_i) matrix
reproduces A row-for-row as U_sparse @ V_stacked. Each number is stored once,
in a cluster-major coefficient buffer (U^0, U^1, ... back to back) and the
stacked bases. The assignment is the only record of the partition; the
blocks, row positions and the sparse layer's row_starts derive from it.

The compressed layer's forward pass is lookup(f, ids): one sort groups the
distinct ids by cluster, each cluster runs one (distinct rows x j_i) @
(j_i x d) product, and a repeated id costs one product row, copied to every
place that asked for it. A cluster whose every row is asked for multiplies
its u block in place, so reconstruct gathers no copy of any block. No product
has one row, which numpy would round apart from a row of a larger one: a
lone row is multiplied stacked twice, so a row's bits never depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import Clustering, _cluster_rows, _units
from .errors import ParameterError
from .linalg import (CHUNK_ROWS, ORTHONORMALITY_TOL, _check_ids, _one_blas_thread, as_matrix,
                     orthonormality_residual)

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
    and positions derive from assignment, n integer ids in [0, k): row z is
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

    def __post_init__(self, rows=None):
        object.__setattr__(self, "dims", tuple(int(j) for j in self.dims))
        for name in ("values", "v_stacked"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        blocks, positions = _derive_blocks(self, rows)
        for name, arr in (("assignment", self.assignment.view()), ("positions", positions)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "blocks", blocks)

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


def _grouped(rows: list[np.ndarray], **fields) -> MessiFactorization:
    """MessiFactorization(**fields) whose assignment the caller has already
    checked and grouped into rows (its _cluster_rows); neither step runs again."""
    f = object.__new__(MessiFactorization)
    for name, value in fields.items():
        object.__setattr__(f, name, value)
    f.__post_init__(rows)
    return f


def _derive_blocks(f: MessiFactorization, rows=None) -> tuple[tuple[Block, ...], np.ndarray]:
    """Check the invariants; return the blocks and each row's position inside its block.

    rows, when given, is the checked assignment's _cluster_rows; else this checks it.
    """
    if f.n < 1 or f.d < 1:
        raise ParameterError(f"factorization needs n >= 1 and d >= 1, got n={f.n}, d={f.d}")
    if f.k < 1 or len(f.dims) != f.k or min(f.dims) < 0:
        raise ParameterError(f"expected {f.k} nonnegative dims, got {f.dims}")
    if rows is None:
        object.__setattr__(f, "assignment", _check_ids(f.assignment, f.k, "assignment", f.n))
        rows = _cluster_rows(f.assignment, f.k)
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
    vts = [np.ascontiguousarray(v.T) for _, v in views]  # once per cluster, not per chunk
    # One unit per (cluster, chunk): the chunk's row ids, its basis_c.T and its rows of u.
    units = [(ids[s : s + CHUNK_ROWS], vt, u[s : s + CHUNK_ROWS])
             for ids, (u, _), vt in zip(rows, views, vts) for s in range(0, ids.size, CHUNK_ROWS)]
    with _one_blas_thread, _units(threads) as run:
        run(lambda unit: np.matmul(a[unit[0]], unit[1], out=unit[2]), units)
    return _grouped(rows, n=n, d=d, k=clustering.k, dims=dims, assignment=clustering.assignment,
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
    passes); repeats and any order are allowed. Negative ids are rejected
    rather than wrapped, floats and bool masks rather than cast. The result
    equals reconstruct(f)[ids] bit for bit, whatever other ids share the batch.
    """
    ids = _check_ids(ids, f.n, "ids")
    # (cluster, position in its block) as one integer: sorted, the ids fall into
    # one run per cluster, positions ascending and repeats adjacent.
    keys = f.assignment[ids] * f.n + f.positions[ids]
    order = np.argsort(keys)
    keys = keys[order]
    new = keys[1:] != keys[:-1]  # keys[i + 1] is not a repeat of keys[i]
    repeats = not new.all()
    if repeats:
        first = np.concatenate(([True], new))
        inverse = np.empty_like(order)  # ids[i]'s row among the distinct keys
        inverse[order] = np.cumsum(first) - 1
        keys = keys[first]
    out = np.empty((keys.size, f.d))
    bounds = np.searchsorted(keys, range(0, (f.k + 1) * f.n, f.n)).tolist()
    for c, (b, lo, hi) in enumerate(zip(f.blocks, bounds, bounds[1:])):
        if lo == hi:
            continue
        u = b.u if hi - lo == b.u.shape[0] else b.u[keys[lo:hi] - c * f.n]
        if hi - lo == 1:  # numpy rounds a one-row product apart from a row of a larger one
            out[lo if repeats else order[lo]] = (np.repeat(u, 2, axis=0) @ b.v)[0]
        elif repeats:
            np.matmul(u, b.v, out=out[lo:hi])
        else:
            out[order[lo:hi]] = u @ b.v
    return out[inverse] if repeats else out


def reconstruct(f: MessiFactorization) -> np.ndarray:
    """The full n x d reconstruction, lookup(f, [0, 1, ..., n - 1])."""
    return lookup(f, np.arange(f.n))


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
