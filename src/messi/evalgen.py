"""Evaluation harness: error metrics, planted-subspace data, budget sweeps.

Comparisons between the clustered factorization and the single-SVD baseline
are made at equal parameter budgets, not equal ranks, because the two spend
a budget differently (n j + k j d versus j (n + d)). A sweep therefore maps
each (k, budget) cell to the largest feasible uniform dimension and records
the reconstruction error there; relative Frobenius error is the documented
stand-in for downstream task accuracy, which this package does not measure.
A sweep evaluates exactly the cells it is given: the single-SVD baseline is
the k = 1 cell, present when k_list holds 1 (`messi sweep` always adds it).
Budgets are absolute parameter counts; `rate_to_budget` turns a target
compression rate into one. Every cell runs `factorize`, the one EM-to-build
pipeline, which `messi compress` runs too: the sweep measures what compress ships.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import Clustering, EmOptions, allocate_dims, em_multi_restart, em_run
from .errors import ParameterError
from .factorization import MessiFactorization, build_factorization, equal_budget_j, reconstruct
from .io import ReportRow
from .linalg import as_matrix


def frobenius_error(a, a_hat) -> tuple[float, float]:
    """(absolute, relative) Frobenius error between a matrix and its reconstruction.

    The squares are added by numpy's pairwise sum, not by BLAS, so the result
    does not depend on the BLAS thread count.
    """
    a = as_matrix(a)
    a_hat = as_matrix(a_hat)
    if a.shape != a_hat.shape:
        raise ParameterError(f"shape mismatch: {a.shape} vs {a_hat.shape}")
    denom = math.sqrt(float(np.sum(np.square(a))))
    diff = a - a_hat
    absolute = math.sqrt(float(np.sum(np.square(diff, out=diff))))
    if denom == 0.0:
        return absolute, 0.0 if absolute == 0.0 else math.inf
    return absolute, absolute / denom


@dataclass(frozen=True)
class SynthSpec:
    """Planted-subspace model: k_true random j_true-dim subspaces, rows round-robin.

    Each row is a uniform[-1, 1] coefficient combination of its subspace's
    basis plus isotropic Gaussian noise of scale noise_sigma (finite, >= 0).
    """

    n: int
    d: int
    k_true: int
    j_true: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ParameterError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if self.k_true < 1:
            raise ParameterError(f"k_true must be >= 1, got {self.k_true}")
        if not 1 <= self.j_true <= self.d:
            raise ParameterError(f"j_true must lie in [1, {self.d}], got {self.j_true}")
        if not 0 <= self.noise_sigma < math.inf:  # also NaN
            raise ParameterError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def generate_planted(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample a planted-subspace matrix and its ground-truth assignment.

    Deterministic in spec.seed: one PCG64 stream drives basis, coefficient
    and noise draws in a fixed order, so the same spec reproduces the same
    matrix bit-for-bit.
    """
    rng = np.random.default_rng(spec.seed)
    bases = []
    for _ in range(spec.k_true):
        g = rng.standard_normal((spec.d, spec.j_true))
        q, r = np.linalg.qr(g)
        # Fix the sign ambiguity of QR so the basis depends only on the draw.
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        bases.append((q * signs).T)
    assignment = np.arange(spec.n, dtype=np.int64) % spec.k_true
    coeffs = rng.uniform(-1.0, 1.0, size=(spec.n, spec.j_true))
    noise = rng.standard_normal((spec.n, spec.d)) * spec.noise_sigma
    a = np.empty((spec.n, spec.d))
    for c in range(spec.k_true):
        rows = assignment == c
        a[rows] = coeffs[rows] @ bases[c]
    a += noise
    return a, assignment


def rate_to_budget(rate: float, n: int, d: int) -> int:
    """Parameter budget for a target compression rate: ceil((1 - rate) * n * d)."""
    if not 0.0 < rate < 1.0:
        raise ParameterError(f"compression rate must lie in (0, 1), got {rate}")
    return math.ceil((1.0 - rate) * n * d)


def factorize(a, k: int, j: int, opts: EmOptions, dims_auto: bool = False, threads: int = 1,
              progress=None) -> tuple[Clustering, MessiFactorization, int]:
    """EM, then the factorization: the one pipeline of `messi compress` and every sweep cell.

    em_multi_restart runs at the uniform dimension j; with dims_auto, allocate_dims then
    splits the k * j dims by spectrum and em_run continues from that assignment. Returns
    (clustering, factorization, iterations of every EM stage summed), whatever threads is."""
    clustering = em_multi_restart(a, k, j, opts, threads=threads)
    iterations = clustering.iterations
    if dims_auto:
        dims = allocate_dims(a, clustering.assignment, k * j, k=k)
        if progress is not None:
            progress(f"reallocated dims: {dims}")
        clustering = em_run(a, k, dims, opts, initial_assignment=clustering.assignment,
                            threads=threads)
        iterations += clustering.iterations
    return clustering, build_factorization(a, clustering, threads=threads), iterations


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (k, budget) cells to evaluate: every k in k_list at every budget."""

    k_list: tuple[int, ...]
    budget_list: tuple[int, ...] = ()
    options: EmOptions = field(default_factory=EmOptions)

    def __post_init__(self):
        object.__setattr__(self, "k_list", tuple(int(k) for k in self.k_list))
        object.__setattr__(self, "budget_list", tuple(int(b) for b in self.budget_list))
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ParameterError("k_list must be a nonempty list of positive integers")
        if not self.budget_list:
            raise ParameterError("budget_list must be nonempty")


def run_sweep(a, spec: SweepSpec, threads: int = 1, progress=None) -> list[ReportRow]:
    """Evaluate every (k, budget) cell of spec and return rows ordered by (k, budget).

    Each cell runs factorize at the largest uniform dimension its budget fits,
    and its errors come from the materialized reconstruction. Cells whose budget
    cannot afford one dimension are recorded as warning rows (empty fields).
    Rows are a pure function of (a, spec) for any thread count.
    """
    a = as_matrix(a)
    n, d = a.shape
    opts = spec.options
    budgets = sorted(set(spec.budget_list))

    def cell(k: int, budget: int) -> ReportRow:
        try:
            j = min(equal_budget_j(n, d, k, budget), d)
        except ParameterError:
            if progress is not None:
                progress(f"skipping infeasible cell k={k} budget={budget}")
            return ReportRow(
                k=k, dims=None, params=None, compression_rate=None,
                frobenius_error=None, relative_error=None,
                iterations=0, converged=False, seed=opts.seed,
            )
        if progress is not None:
            progress(f"clustering k={k} j={j} (budget {budget})")
        clustering, fact, iterations = factorize(a, k, j, opts, threads=threads)
        return ReportRow.from_factorization(
            fact, *frobenius_error(a, reconstruct(fact)), iterations=iterations,
            converged=clustering.converged, seed=opts.seed,
        )

    return [cell(k, budget) for k in sorted(set(spec.k_list)) for budget in budgets]
