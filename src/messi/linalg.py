"""Dense linear-algebra substrate: truncated SVD, best-fit subspaces, projections.

Rows of a matrix are treated as points in d-space. All subspaces are linear
(through the origin, no mean-centering), matching the two-layer factorization
this package builds: A ~ U V has no bias term. Everything is computed in
float64 regardless of input precision.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError

# Max-abs deviation of basis @ basis.T from the identity tolerated on construction.
ORTHONORMALITY_TOL = 1e-10


def as_matrix(data) -> np.ndarray:
    """Coerce input to a finite, 2-d, float64 array (float32 is widened exactly).

    Raises ParameterError on bad shape and InputError on NaN/Inf entries.
    """
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ParameterError(f"matrix needs at least one row and one column, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m


def _as_point(point, ambient: int) -> np.ndarray:
    x = np.asarray(point, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != ambient:
        raise ParameterError(f"expected a vector of length {ambient}, got shape {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class Subspace:
    """A j-dimensional linear subspace of R^d, stored as j orthonormal basis rows.

    The basis is (j, d) with basis @ basis.T within ORTHONORMALITY_TOL of the
    identity. Distinct bases can span the same subspace; compare subspaces via
    their projection operators basis.T @ basis, never via raw rows.
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
        if j > 0:
            gram = b @ b.T
            dev = float(np.max(np.abs(gram - np.eye(j))))
            if dev > ORTHONORMALITY_TOL:
                raise ParameterError(f"basis rows are not orthonormal (max deviation {dev:.3e})")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The d x d orthogonal projector onto this subspace."""
        return self.basis.T @ self.basis


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Top-r singular triplets: left (n, r), singular (r,) nonincreasing, right (r, d)."""

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular.shape[0]

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


def best_fit_subspace(points, j: int) -> Subspace:
    """The j-dim linear subspace minimizing the sum of squared distances to the rows.

    This is the span of the top-j eigenvectors of the d x d Gram matrix
    points.T @ points (no mean-centering), i.e. of the top-j right singular
    vectors. When the rows have rank < j the basis is padded with eigenvectors
    of the zero eigenvalue, a deterministic orthonormal complement that
    carries no energy. For j == d the subspace is all of R^d and the basis is
    the identity, so every distance is exactly 0.
    """
    points = as_matrix(points)
    d = points.shape[1]
    if j < 0:
        raise ParameterError(f"subspace dimension must be nonnegative, got {j}")
    if j > d:
        raise ParameterError(f"subspace dimension {j} exceeds ambient dimension {d}")
    if j == 0:
        return Subspace(np.empty((0, d)))
    if j == d:
        return Subspace(np.eye(d))
    _, vecs = np.linalg.eigh(points.T @ points)  # ascending eigenvalues
    return Subspace(vecs[:, ::-1][:, :j].T)


def project(point, s: Subspace) -> np.ndarray:
    """Orthogonal projection of a point onto the subspace: basis.T @ (basis @ x)."""
    x = _as_point(point, s.ambient)
    return s.basis.T @ (s.basis @ x)


def dist_sq(point, s: Subspace) -> float:
    """Squared Euclidean distance from a point to its projection on the subspace.

    Computed as ||x||^2 - ||basis @ x||^2, clamped at 0 against rounding.
    """
    x = _as_point(point, s.ambient)
    coeffs = s.basis @ x
    return max(0.0, float(x @ x - coeffs @ coeffs))


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
