"""messi: compress weight matrices by k-subspace clustering and factorization.

The pipeline: treat the n rows of a matrix as points in d-space, partition
them among k rank-j subspaces by seeded EM, factor each cluster over its
subspace, and assemble the blocks into one sparse coefficient layer plus one
stacked basis layer. With k=1 this reduces exactly to the classic truncated-
SVD factor pair.
"""

from .cluster import (
    Clustering,
    EmOptions,
    allocate_dims,
    clustering_cost,
    em_multi_restart,
    em_run,
    refit_step,
)
from .errors import FormatError, InputError, MessiError, ParameterError
from .evalgen import (
    SweepSpec,
    SynthSpec,
    factorize,
    frobenius_error,
    generate_planted,
    rate_to_budget,
    run_sweep,
)
from .factorization import (
    Block,
    MessiFactorization,
    SparseAssembly,
    assemble_sparse,
    build_factorization,
    equal_budget_j,
    lookup,
    param_count,
    reconstruct,
    svd_baseline_params,
)
from .io import (
    ReportRow,
    check_bundle_target,
    load_bundle,
    load_bundle_meta,
    load_matrix,
    parse_report,
    render_report,
    save_bundle,
    save_matrix,
    write_report,
)
from .linalg import (
    Subspace,
    SvdResult,
    as_matrix,
    best_fit_subspace,
    distances_sq,
    truncated_svd,
)

__version__ = "0.1.0"


def forward(f, row_index):
    """One row of the compressed layer, lookup(f, [row_index])[0].

    Kept for callers of the former per-row API (perfbench's lookup oracle
    test among them); new code calls lookup with a whole batch.
    """
    return lookup(f, [row_index])[0]


__all__ = [
    "Block",
    "Clustering",
    "EmOptions",
    "FormatError",
    "InputError",
    "MessiError",
    "MessiFactorization",
    "ParameterError",
    "ReportRow",
    "SparseAssembly",
    "Subspace",
    "SvdResult",
    "SweepSpec",
    "SynthSpec",
    "allocate_dims",
    "as_matrix",
    "assemble_sparse",
    "best_fit_subspace",
    "build_factorization",
    "check_bundle_target",
    "clustering_cost",
    "distances_sq",
    "em_multi_restart",
    "em_run",
    "equal_budget_j",
    "factorize",
    "frobenius_error",
    "generate_planted",
    "load_bundle",
    "load_bundle_meta",
    "load_matrix",
    "lookup",
    "param_count",
    "parse_report",
    "rate_to_budget",
    "reconstruct",
    "refit_step",
    "render_report",
    "run_sweep",
    "save_bundle",
    "save_matrix",
    "svd_baseline_params",
    "truncated_svd",
    "write_report",
]
