"""Child-process side of the benchmark: one process per measured task.

    python3 perfbench/worker.py cli --spans FILE -- <messi arguments>
    python3 perfbench/worker.py permute --matrix FILE --seed S
    python3 perfbench/worker.py serve-setup --n ... --bundle DIR --out FILE
    python3 perfbench/worker.py serve --bundle DIR --seconds S --out FILE

`cli` runs the messi command line in this process with every public function
traced. `permute` shuffles and sign-flips the columns of a matrix file.
`serve-setup` writes a bundle from planted labels without running EM.
`serve` loads that bundle and answers lookups in a closed loop with one
client, checking every batch. A worker runs one task and nothing else, so its
peak RSS is that task's. Results go to the --out JSON file; run.py reads them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from tracing import Tracer

# Relative Frobenius tolerance between a lookup batch and its reference rows.
LOOKUP_RTOL = 1e-12
# Relative tolerance of ||A - reconstruct(f)||^2 against the stored cost.
RESIDUAL_RTOL = 1e-9


def run_cli(args) -> int:
    tracer = Tracer().install()
    import messi.cli

    try:
        with tracer.span("cli.main"):
            messi.cli.main(args.argv, prog_name="messi", standalone_mode=False)
    finally:
        tracer.dump(args.spans)
    return 0


def permute(args) -> int:
    """Apply the seed's signed column permutation to a matrix file in place.

    A signed permutation is orthogonal, so row distances to any subspace, and
    with them EM's whole trajectory, are those of the unpermuted matrix. Seed 0
    leaves the matrix as it is.
    """
    import numpy as np

    import messi.io

    if args.seed == 0:
        return 0
    a = messi.io.load_matrix(args.matrix)
    rng = np.random.default_rng([args.seed, 11])
    columns = rng.permutation(a.shape[1])
    signs = rng.choice([-1.0, 1.0], size=a.shape[1])
    messi.io.save_matrix(a[:, columns] * signs, args.matrix)
    return 0


def serve_setup(args) -> int:
    """Planted matrix, one refit on the planted labels, factorization, bundle."""
    tracer = Tracer().install() if args.spans else None
    import messi.cluster
    import messi.evalgen
    import messi.factorization
    import messi.io

    spec = messi.evalgen.SynthSpec(n=args.n, d=args.d, k_true=args.k_true, j_true=args.j_true,
                                   noise_sigma=args.noise, seed=args.seed)
    a, labels = messi.evalgen.generate_planted(spec)
    subspaces = messi.cluster.refit_step(a, labels, args.k, args.j)
    cost = messi.cluster.clustering_cost(a, labels, subspaces)
    clustering = messi.cluster.Clustering(k=args.k, assignment=labels, subspaces=tuple(subspaces),
                                          cost=cost, q=2.0, iterations=0, converged=True)
    f = messi.factorization.build_factorization(a, clustering)
    messi.io.save_bundle(f, args.bundle, seed=args.seed, cost=cost, iterations=0)
    if args.matrix:
        messi.io.save_matrix(a, args.matrix)

    # Checks, timed separately so that run.py can leave them out of set-up time.
    check_start = time.perf_counter()
    absolute, relative = messi.evalgen.frobenius_error(a, messi.factorization.reconstruct(f))
    residual_ok = abs(absolute * absolute - cost) <= RESIDUAL_RTOL * cost
    check_s = time.perf_counter() - check_start
    if tracer is not None:
        tracer.dump(args.spans)
    _write(args.out, {"rel_error": relative, "residual_ok": residual_ok, "check_s": check_s})
    return 0


def id_batches(n: int, batch: int, seed: int, zipf: float):
    """Endless seeded stream of token-id batches, Zipf(zipf) over a permuted vocabulary."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    perm = rng.permutation(n)
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -zipf)
    cdf /= cdf[-1]
    while True:
        ranks = np.minimum(np.searchsorted(cdf, rng.random(batch), side="right"), n - 1)
        yield perm[ranks]


def reference_rows(f, ids):
    """reconstruct(f)[ids]: the per-cluster products U_c V_c that reconstruct forms,
    evaluated only for the rows asked for, so no n x d copy is held."""
    import numpy as np

    out = np.empty((ids.size, f.d))
    clusters = f.assignment[ids]
    for c, b in enumerate(f.blocks):
        mask = clusters == c
        if mask.any():
            out[mask] = b.u[np.searchsorted(b.row_ids, ids[mask])] @ b.v
    return out


def lookup_function(messi):
    """messi.lookup(f, ids) when the package has it, else a loop over messi.forward."""
    import numpy as np

    lookup = getattr(messi, "lookup", None)
    if lookup is not None:
        return lookup
    forward = messi.forward

    def lookup_by_rows(f, ids):
        return np.stack([forward(f, i) for i in ids.tolist()])

    return lookup_by_rows


def serve(args) -> int:
    tracer = Tracer().install() if args.spans else None
    import numpy as np

    import messi
    import messi.factorization
    import messi.io

    ready = []
    for _ in range(args.ready_reps):
        f = sparse = None  # release the previous copy before loading the next
        start = time.perf_counter()
        f = messi.io.load_bundle(args.bundle)
        sparse = messi.factorization.assemble_sparse(f)
        ready.append(time.perf_counter() - start)

    lookup = lookup_function(messi)
    latencies, checked, failed = [], 0, 0
    batches = id_batches(f.n, args.batch, args.seed, args.zipf)
    deadline = time.perf_counter() + args.seconds
    while True:
        ids = next(batches)
        distinct = int(np.unique(ids).size)
        span = (tracer.span("factorization.lookup", ids=int(ids.size), unique=distinct)
                if tracer is not None else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            out = lookup(f, ids)
            latencies.append(time.perf_counter() - start)
        expected = reference_rows(f, ids)
        checked += 1
        if out.shape != expected.shape or not (
                np.linalg.norm(out - expected) <= LOOKUP_RTOL * np.linalg.norm(expected)):
            failed += 1
        if time.perf_counter() >= deadline:
            break

    dense_rows_per_s = None
    if args.matrix:
        # Reference: the uncompressed gather A[ids] over the same id stream,
        # loaded with numpy so that io.load_matrix spans stay the program's.
        a = np.load(args.matrix)
        stream = id_batches(f.n, args.batch, args.seed, args.zipf)
        id_list = [next(stream) for _ in latencies]
        start = time.perf_counter()
        for ids in id_list:
            gathered = a[ids]
        dense_rows_per_s = sum(ids.size for ids in id_list) / (time.perf_counter() - start)
    if tracer is not None:
        tracer.dump(args.spans)
    # The assembled layer stays referenced to the end, as a server would hold it.
    _write(args.out, {"ready_s": ready, "latencies_s": latencies,
                      "total_dims": sparse.total_dims,
                      "checked": checked, "failed": failed,
                      "dense_rows_per_s": dense_rows_per_s})
    return 0


def _write(path, payload) -> None:
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cli", help="traced in-process messi command line")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=run_cli)

    p = sub.add_parser("permute", help="signed column permutation of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=permute)

    p = sub.add_parser("serve-setup", help="write a bundle from planted labels")
    for name in ("n", "d", "k-true", "j-true", "k", "j", "seed"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--matrix", help="also save the planted matrix here")
    p.add_argument("--spans", help="trace and write spans here")
    p.set_defaults(func=serve_setup)

    p = sub.add_parser("serve", help="closed-loop lookups against a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--zipf", type=float, required=True)
    p.add_argument("--ready-reps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--matrix", help="time the dense gather A[ids] from this matrix too")
    p.add_argument("--spans", help="trace and write spans here")
    p.set_defaults(func=serve)

    args = parser.parse_args(argv)
    if args.command == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
