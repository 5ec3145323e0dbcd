"""Command-line front-end: compress, evaluate, sweep, synth, inspect.

Progress goes to stderr; machine-readable results go to files or stdout.
Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import functools
import os

import click
import numpy as np

from . import io as bundle_io
from .cluster import INIT_METHODS, EmOptions, allocate_dims, em_multi_restart, em_run
from .errors import MessiError
from .evalgen import (
    SweepSpec,
    SynthSpec,
    frobenius_error,
    generate_planted,
    rate_to_budget,
    run_sweep,
)
from .factorization import build_factorization, equal_budget_j, reconstruct
from .linalg import orthonormality_residual


def _parse_list(value: str, name: str, kind: type, valid, bounds: str) -> list:
    """Comma-separated ints or floats, each passing valid; anything else is a usage error."""
    try:
        items = [kind(x) for x in value.split(",") if x.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise click.UsageError(f"{name} must be a comma-separated list of {noun}")
    if not items:
        raise click.UsageError(f"{name} must not be empty")
    if not all(valid(x) for x in items):
        raise click.UsageError(f"{name} entries must {bounds}")
    return items


def _runtime_errors(fn):
    """Map library and OS errors to exit code 1 (usage errors stay at 2)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (MessiError, OSError) as e:
            raise click.ClickException(str(e))

    return wrapper


@click.group()
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=42, show_default=True,
              help="Base RNG seed.")
@click.option("--threads", type=int, default=None,
              help="Threads for EM restarts, row chunks and fits (default: all cores); "
                   "outputs are bit-identical for every value.")
@click.option("--quiet", is_flag=True, help="Suppress progress output on stderr.")
@click.pass_context
def main(ctx, seed, threads, quiet):
    """Compress weight matrices by clustering their rows onto k low-rank subspaces."""
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    ctx.obj = {"seed": seed, "threads": threads, "quiet": quiet}


def _progress(ctx_obj):
    if ctx_obj["quiet"]:
        return None
    return lambda msg: click.echo(msg, err=True)


@main.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Matrix to compress (.npy).")
@click.option("--k", type=click.IntRange(min=1), required=True, help="Number of subspaces.")
@click.option("--j", type=click.IntRange(min=1), default=None,
              help="Uniform subspace dimension.")
@click.option("--budget", type=click.IntRange(min=1), default=None,
              help="Parameter budget; picks the largest j that fits.")
@click.option("--restarts", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--max-iters", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--tol", type=float, default=1e-6,
              show_default=True, help="Relative cost-improvement stopping threshold, > 0.")
@click.option("--init", type=click.Choice(INIT_METHODS), default="random-partition",
              show_default=True)
@click.option("--dims-auto", is_flag=True,
              help="After EM, redistribute the k*j dims across clusters by spectrum and "
                   "continue EM from its assignment, so rows move to their nearest "
                   "subspace. The k*j total stays fixed; the parameter count follows the "
                   "final cluster sizes and can exceed --budget.")
@click.option("--output", required=True, type=click.Path(file_okay=False),
              help="Bundle directory to write.")
@click.pass_obj
@_runtime_errors
def compress(obj, input_path, k, j, budget, restarts, max_iters, tol, init,
             dims_auto, output):
    """Cluster the rows of a matrix and write the factorization bundle."""
    if (j is None) == (budget is None):
        raise click.UsageError("exactly one of --j / --budget must be given")
    if not tol > 0:  # also NaN, which click.FloatRange lets through
        raise click.BadParameter(f"{tol} is not > 0", param_hint="'--tol'")
    bundle_io.check_bundle_target(output)
    a = bundle_io.load_matrix(input_path)
    n, d = a.shape
    if j is None:
        j = min(equal_budget_j(n, d, k, budget), d)
    opts = EmOptions(restarts=restarts, max_iters=max_iters, rel_tol=tol,
                     seed=obj["seed"], init=init)
    progress = _progress(obj)
    if progress:
        progress(f"clustering {n}x{d} matrix with k={k}, j={j}, {restarts} restarts")
    clustering = em_multi_restart(a, k, j, opts, threads=obj["threads"])
    iterations = clustering.iterations
    if dims_auto:
        dims = allocate_dims(a, clustering.assignment, k * j, k=k)
        if progress:
            progress(f"reallocated dims: {dims}")
        clustering = em_run(a, k, dims, opts, initial_assignment=clustering.assignment,
                            threads=obj["threads"])
        iterations += clustering.iterations
    fact = build_factorization(a, clustering, threads=obj["threads"])
    bundle_io.save_bundle(
        fact, output, seed=obj["seed"], cost=clustering.cost,
        iterations=iterations, converged=clustering.converged,
    )
    click.echo(f"params={fact.param_count()}")
    click.echo(f"compression_rate={fact.compression_rate():.17g}")
    click.echo(f"cost={clustering.cost:.17g}")
    click.echo(f"iterations={iterations}")


@main.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Original matrix (.npy).")
@click.option("--bundle", "bundle_dir", required=True,
              type=click.Path(exists=True, file_okay=False), help="Factorization bundle.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              help="Optional CSV to write alongside the printed summary.")
@click.pass_obj
@_runtime_errors
def evaluate(obj, input_path, bundle_dir, report_path):
    """Measure reconstruction error of a bundle against its source matrix."""
    a = bundle_io.load_matrix(input_path)
    fact = bundle_io.load_bundle(bundle_dir)
    meta = bundle_io.load_bundle_meta(bundle_dir)
    if (fact.n, fact.d) != a.shape:
        raise click.ClickException(
            f"bundle is {fact.n}x{fact.d} but matrix is {a.shape[0]}x{a.shape[1]}"
        )
    absolute, relative = frobenius_error(a, reconstruct(fact))
    click.echo(f"frobenius_error={absolute:.17g}")
    click.echo(f"relative_error={relative:.17g}")
    residual_sq = absolute * absolute
    gap = abs(residual_sq - meta["cost"]) / max(abs(meta["cost"]), 1e-30)
    ok = gap <= 1e-9 or abs(residual_sq - meta["cost"]) <= 1e-12
    click.echo(f"residual_identity={'ok' if ok else 'mismatch'}")
    if not ok:
        raise click.ClickException(
            f"squared error {residual_sq:.17g} disagrees with stored cost "
            f"{meta['cost']:.17g} (relative gap {gap:.3e})"
        )
    if report_path is not None:
        row = bundle_io.ReportRow(
            k=fact.k, dims=fact.dims, params=fact.param_count(),
            compression_rate=fact.compression_rate(),
            frobenius_error=absolute, relative_error=relative,
            iterations=meta["iterations"], converged=meta.get("converged", True),
            seed=meta["seed"],
        )
        bundle_io.write_report([row], report_path)


@main.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Matrix to sweep (.npy).")
@click.option("--k-list", "k_text", required=True,
              help="Comma-separated cluster counts, e.g. 2,4,8; k=1, the single-SVD "
                   "baseline, is always added.")
@click.option("--rate-list", "rate_text", default=None,
              help="Comma-separated target compression rates, each in (0, 1).")
@click.option("--budget-list", "budget_text", default=None,
              help="Comma-separated absolute budgets, each >= 1.")
@click.option("--restarts", type=click.IntRange(min=1), default=16, show_default=True)
@click.option("--output", required=True, type=click.Path(dir_okay=False), help="CSV to write.")
@click.pass_obj
@_runtime_errors
def sweep(obj, input_path, k_text, rate_text, budget_text, restarts, output):
    """Run the error-versus-budget grid and write the report CSV."""
    if (rate_text is None) == (budget_text is None):
        raise click.UsageError("exactly one of --rate-list / --budget-list must be given")
    ks = _parse_list(k_text, "--k-list", int, lambda k: k >= 1, "be >= 1")
    if budget_text is not None:
        budgets = _parse_list(budget_text, "--budget-list", int, lambda b: b >= 1, "be >= 1")
    else:
        rates = _parse_list(rate_text, "--rate-list", float, lambda r: 0.0 < r < 1.0,
                            "lie in (0, 1)")
    a = bundle_io.load_matrix(input_path)
    n, d = a.shape
    if budget_text is None:
        budgets = [rate_to_budget(r, n, d) for r in rates]
    opts = EmOptions(restarts=restarts, seed=obj["seed"])
    spec = SweepSpec(k_list=(1, *ks), budget_list=tuple(budgets), options=opts)
    rows = run_sweep(a, spec, threads=obj["threads"], progress=_progress(obj))
    bundle_io.write_report(rows, output)
    if _progress(obj):
        click.echo(f"wrote {len(rows)} rows to {output}", err=True)


@main.command()
@click.option("--n", type=int, default=120, show_default=True)
@click.option("--d", type=int, default=3, show_default=True)
@click.option("--k-true", type=int, default=3, show_default=True)
@click.option("--j-true", type=int, default=1, show_default=True)
@click.option("--noise", type=float, default=0.05, show_default=True,
              help="Gaussian noise scale per coordinate.")
@click.option("--spread", type=float, default=1.0, show_default=True,
              help="Scale of the coefficients along each subspace.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="Override the global --seed.")
@click.option("--output", required=True, type=click.Path(dir_okay=False))
@click.option("--labels", "labels_path", type=click.Path(dir_okay=False), default=None,
              help="Optional path for the ground-truth assignment (.npy).")
@click.pass_obj
@_runtime_errors
def synth(obj, n, d, k_true, j_true, noise, spread, seed, output, labels_path):
    """Generate a planted-subspace matrix (defaults: 120 points around 3 lines in 3-space)."""
    try:
        spec = SynthSpec(
            n=n, d=d, k_true=k_true, j_true=j_true, noise_sigma=noise, spread=spread,
            seed=obj["seed"] if seed is None else seed,
        )
    except MessiError as e:
        raise click.UsageError(str(e))
    a, assignment = generate_planted(spec)
    bundle_io.save_matrix(a, output)
    if labels_path is not None:
        bundle_io.save_index_vector(assignment, labels_path)
    click.echo(f"wrote {n}x{d} matrix to {output}")


@main.command()
@click.option("--bundle", "bundle_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.pass_obj
@_runtime_errors
def inspect(obj, bundle_dir):
    """Print a bundle's metadata, block sizes and sparsity pattern summary."""
    fact = bundle_io.load_bundle(bundle_dir)
    meta = bundle_io.load_bundle_meta(bundle_dir)
    for key in ("n", "d", "k", "seed", "cost", "iterations"):
        click.echo(f"{key}={meta[key]}")
    click.echo(f"dims={';'.join(str(j) for j in fact.dims)}")
    click.echo(f"params={fact.param_count()}")
    for c, b in enumerate(fact.blocks):
        click.echo(f"block {c}: rows={b.row_ids.size} dim={fact.dims[c]} "
                   f"orthonormality_residual={orthonormality_residual(b.v):.3e}")
    widths = np.asarray(fact.dims, dtype=np.int64)[fact.assignment]
    click.echo(
        "nonzeros_per_row: "
        f"min={int(widths.min())} max={int(widths.max())} total={int(widths.sum())}"
    )


if __name__ == "__main__":
    main()
