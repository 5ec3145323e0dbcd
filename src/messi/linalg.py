"""Dense linear-algebra substrate: truncated SVD, best-fit subspaces, row distances.

Rows of a matrix are treated as points in d-space. All subspaces are linear
(through the origin, no mean-centering), matching the two-layer factorization
this package builds: A ~ U V has no bias term. Everything is computed in
float64 regardless of input precision. Distances are computed a matrix of
rows at a time (`distances_sq`), the form EM's assignment pass uses. Fits and
finiteness checks read CHUNK_ROWS rows at a time and copy no whole matrix.

All functions here are pure and safe to call concurrently.

`_one_blas_thread` holds numpy's bundled OpenBLAS at one thread while EM
runs, so that EM takes its parallelism from its own pool of fixed work units
and its output bits depend on no thread count.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

# Max-abs deviation of basis @ basis.T from the identity tolerated on construction.
ORTHONORMALITY_TOL = 1e-10

# Rows per fixed chunk of every pass over rows; fixed, so no result depends on threads.
CHUNK_ROWS = 2048


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        suffix = "64_" if "openblas64_" in os.path.basename(path) else ""
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None when no hook to it was found."""
    hook = _openblas_threads()
    return None if hook is None else hook[0]()


def _set_blas_threads(count: int) -> None:
    """Set OpenBLAS's thread count for the whole process; a no-op without the hook."""
    hook = _openblas_threads()
    if hook is not None:
        hook[1](count)


class _OneBlasThread(AbstractContextManager):
    """Holds OpenBLAS at one thread while any thread is inside; reentrant.

    The thread count is process-wide, so entries are counted: the first to
    enter saves the count and sets it to 1, the last to leave restores it
    (on an exception too). Without the hook this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = _blas_threads()
                _set_blas_threads(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved is not None:
                _set_blas_threads(self._saved)


_one_blas_thread = _OneBlasThread()


def as_matrix(data) -> np.ndarray:
    """Coerce input to a finite, 2-d, float64 array (float32 is widened exactly).

    Raises ParameterError on bad shape and InputError on NaN/Inf entries.
    """
    m = _as_2d(data)
    if not _all_finite(m):
        raise InputError("matrix contains non-finite entries")
    return m


def _as_2d(data) -> np.ndarray:
    """as_matrix without the finiteness check."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ParameterError(f"matrix needs at least one row and one column, got shape {m.shape}")
    return m


def _all_finite(m: np.ndarray) -> bool:
    """Whether every entry is finite, checked CHUNK_ROWS rows at a time (no n x d temporary)."""
    return all(np.isfinite(m[s : s + CHUNK_ROWS]).all() for s in range(0, m.shape[0], CHUNK_ROWS))


def orthonormality_residual(basis: np.ndarray) -> float:
    """max |basis @ basis.T - I| of a (j, d) basis, 0 for j == 0 (NaN if an entry is NaN)."""
    j = basis.shape[0]
    return float(np.max(np.abs(basis @ basis.T - np.eye(j)))) if j else 0.0


@dataclass(frozen=True, eq=False)
class Subspace:
    """A j-dimensional linear subspace of R^d, stored as j orthonormal basis rows.

    The basis is (j, d) with basis @ basis.T within ORTHONORMALITY_TOL of the
    identity. Distinct bases can span the same subspace; compare subspaces via
    their projection operators basis.T @ basis, never via raw rows. The basis
    is always copied, so no caller can change it after it is checked.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.float64, copy=True)
        if b.ndim != 2:
            raise ParameterError(f"basis must be 2-d, got ndim={b.ndim}")
        j, d = b.shape
        if j > d:
            raise ParameterError(f"subspace dimension {j} exceeds ambient dimension {d}")
        if not np.all(np.isfinite(b)):
            raise InputError("basis contains non-finite entries")
        dev = orthonormality_residual(b)
        if not dev <= ORTHONORMALITY_TOL:
            raise ParameterError(f"basis rows are not orthonormal (max deviation {dev:.3e})")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient(self) -> int:
        return self.basis.shape[1]


def _subspace_view(basis: np.ndarray) -> Subspace:
    """A Subspace over a read-only basis whose rows were already checked: no copy, no check."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "basis", basis)
    return s


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Top-r singular triplets: left (n, r), singular (r,) nonincreasing, right (r, d)."""

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray

    def reconstruction(self) -> np.ndarray:
        """left @ diag(singular) @ right, the best rank-r approximation."""
        return (self.left * self.singular) @ self.right


def truncated_svd(m, r: int) -> SvdResult:
    """Top-r singular triplets of a matrix.

    The squared Frobenius residual of the rank-r reconstruction equals the
    tail sum of squared singular values beyond index r (Eckart-Young).
    """
    m = as_matrix(m)
    n, d = m.shape
    if not 1 <= r <= min(n, d):
        raise ParameterError(f"rank {r} out of range [1, {min(n, d)}] for a {n}x{d} matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdResult(left=u[:, :r].copy(), singular=s[:r].copy(), right=vt[:r].copy())


def best_fit_subspace(points, j: int, rows=None) -> Subspace:
    """The j-dim linear subspace minimizing the sum of squared distances to the rows.

    rows, when given, are the ids of the rows of points to fit (default all).
    This is the span of the top-j eigenvectors of the d x d Gram matrix
    X.T @ X of those rows X (no mean-centering), i.e. of the top-j right
    singular vectors. When the rows have rank < j the basis is padded with
    eigenvectors of the zero eigenvalue, a deterministic orthonormal complement
    that carries no energy. For j == d the subspace is all of R^d and the basis
    is the identity, so every distance is exactly 0.
    """
    points = _as_2d(points)
    n, d = points.shape
    rows = None if rows is None else np.asarray(rows, dtype=np.intp)
    if rows is not None and (rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= n))):
        raise ParameterError(f"rows must be a 1-d list of row ids in [0, {n})")
    if j < 0:
        raise ParameterError(f"subspace dimension must be nonnegative, got {j}")
    if j > d:
        raise ParameterError(f"subspace dimension {j} exceeds ambient dimension {d}")
    gram = _gram(points, rows)
    if j == 0:
        return Subspace(np.empty((0, d)))
    if j == d:
        return Subspace(np.eye(d))
    return Subspace(_gram_eigh(gram)[1][:, :j].T)


def _gram(points: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """X.T @ X of the rows X = points[rows] (default all), summed from zeros over chunks of
    CHUNK_ROWS rows in chunk order, so no copy of X is made. InputError on a non-finite row."""
    gram = np.zeros((points.shape[1],) * 2)
    for s in range(0, points.shape[0] if rows is None else rows.size, CHUNK_ROWS):
        block = points[s : s + CHUNK_ROWS] if rows is None else points[rows[s : s + CHUNK_ROWS]]
        if not _all_finite(block):
            raise InputError("matrix contains non-finite entries")
        gram += block.T @ block
    return gram


def _gram_eigh(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A d x d Gram matrix's eigenvalues, descending and clamped at 0, and eigenvector columns."""
    vals, vecs = np.linalg.eigh(gram)  # ascending
    return np.maximum(vals[::-1], 0.0), vecs[:, ::-1]


def _row_norms_sq(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return np.einsum("ij,ij->i", points, points)


def _distances_sq(points: np.ndarray, norms_sq: np.ndarray, s: Subspace) -> np.ndarray:
    """distances_sq without validation, given the rows' squared norms."""
    coeffs = points @ s.basis.T
    return np.maximum(norms_sq - _row_norms_sq(coeffs), 0.0)


def distances_sq(points, s: Subspace) -> np.ndarray:
    """Row-wise squared distances from a matrix of points to a subspace."""
    points = as_matrix(points)
    if points.shape[1] != s.ambient:
        raise ParameterError(
            f"points have {points.shape[1]} columns, subspace ambient is {s.ambient}"
        )
    return _distances_sq(points, _row_norms_sq(points), s)
