"""The three workloads: what each sets up, times, checks and traces.

Each workload class takes the run's Bench and offers `end_to_end()` (untraced,
returns the end-to-end metrics) and `traced()` (returns the per-layer
metrics). Every end-to-end metric is defined on every workload; the README
says what each one means there. Inputs are generated from the run's seed;
the program sees only the generated files.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from harness import tail_percentile

# load_bundle + assemble_sparse is repeated this many times per serving segment.
READY_REPEATS = 3

SIZES = {
    "full": {
        # The criterion-6 matrix and grid.
        "sweep-planted": dict(n=2000, d=64, k_true=4, j_true=8, noise=0.01,
                              k_list="4", rates="0.3,0.5,0.6", restarts=8),
        # The BERT vocabulary shape at a fixed iteration count.
        "compress-bert": dict(n=30522, d=768, k_true=8, j_true=64, noise=0.05,
                              k=4, j=348, restarts=1, max_iters=2),
        "serve-lookup": dict(n=30522, d=768, k_true=4, j_true=256, noise=0.05,
                             k=4, j=348, batch=512, zipf=1.1),
    },
    "tiny": {
        "sweep-planted": dict(n=400, d=16, k_true=4, j_true=4, noise=0.01,
                              k_list="4", rates="0.3,0.5,0.6", restarts=2),
        "compress-bert": dict(n=600, d=32, k_true=4, j_true=4, noise=0.05,
                              k=4, j=8, restarts=1, max_iters=2),
        "serve-lookup": dict(n=800, d=32, k_true=4, j_true=8, noise=0.05,
                             k=4, j=12, batch=64, zipf=1.1),
    },
}


def _median_and_tail(seconds: list[float]) -> dict[str, float]:
    value, _ = tail_percentile(seconds)
    return {"p50_ms": 1000.0 * statistics.median(seconds), "p99_ms": 1000.0 * value}


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _stdout_fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class Workload:
    name = ""
    # Set-up is repeated this many times per run and its median reported.
    setup_repeats = 3
    # The timed command runs at least this often, and again until --seconds pass.
    min_commands = 1

    def __init__(self, bench):
        self.b = bench
        self.p = SIZES[bench.size][self.name]
        self.notes: list[str] = []

    def setup_s(self) -> float:
        return statistics.median(self.setup() for _ in range(self.setup_repeats))

    def repeat(self, once) -> list:
        """Run `once` min_commands times, then again until --seconds have passed."""
        results, deadline = [], time.perf_counter() + self.b.seconds
        while len(results) < self.min_commands or time.perf_counter() < deadline:
            results.append(once())
        return results


class PlantedMatrixWorkload(Workload):
    """Set-up: `messi synth` with the workload's fixed matrix seed, then the run
    seed's signed column permutation of that matrix (worker.py permute).

    EM's iteration count depends on the data: fresh planted matrices per seed
    moved the sweep between 11 and 17 s. A signed permutation changes where
    every value sits and its sign, but not the clustering problem: EM takes
    the same path up to rounding (the sweep's 48 restarts total 325-333
    iterations across seeds), so the spread between seeds is the machine's.
    EM runs with a fixed seed too, as its initial partition would otherwise
    change the work in the same way.
    """

    matrix_seed = 0
    em_seed = 0

    def __init__(self, bench):
        super().__init__(bench)
        self.matrix = bench.path("matrix.npy")

    def synth_args(self) -> list[str]:
        p = self.p
        return ["--quiet", "synth", "--n", str(p["n"]), "--d", str(p["d"]),
                "--k-true", str(p["k_true"]), "--j-true", str(p["j_true"]),
                "--noise", str(p["noise"]), "--seed", str(self.matrix_seed),
                "--output", self.matrix]

    def permute(self) -> float:
        return self.b.worker(["permute", "--matrix", self.matrix,
                              "--seed", str(self.b.seed)]).wall_s

    def setup(self) -> float:
        return self.b.messi(self.synth_args()).wall_s + self.permute()

    def traced_setup(self) -> list[dict]:
        _, spans = self.b.traced_messi(self.synth_args(), "setup")
        self.permute()
        return spans

    def command(self) -> tuple[object, float, int]:
        """Run the timed command once and check it: (child, rel_error, rows handled)."""
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        setup_s = self.setup_s()
        runs = self.repeat(self.command)
        walls = [child.wall_s for child, _, _ in runs]
        task_s = statistics.median(walls)
        return {
            "setup_s": setup_s,
            "task_s": task_s,
            "rows_per_s": runs[0][2] / task_s,
            **_median_and_tail(walls),
            "rel_error": statistics.fmean(rel_error for _, rel_error, _ in runs),
            "peak_rss_mb": max(child.peak_rss_mb for child, _, _ in runs),
        }


class SweepPlanted(PlantedMatrixWorkload):
    """`messi sweep` over the criterion-6 grid at the CLI's default --threads."""

    name = "sweep-planted"
    # Criterion 6's seeds: --seed 0 runs exactly its matrix and EM.
    matrix_seed = 13
    em_seed = 17
    # Set-up takes well under a second, mostly interpreter start-up.
    setup_repeats = 7
    # The restart pool on a multithreaded BLAS makes one sweep's time erratic.
    min_commands = 2

    def __init__(self, bench):
        super().__init__(bench)
        self.report = bench.path("sweep.csv")

    def sweep_args(self, threads: int | None = None) -> list[str]:
        p = self.p
        pool = [] if threads is None else ["--threads", str(threads)]
        return ["--quiet", "--seed", str(self.em_seed), *pool, "sweep",
                "--input", self.matrix, "--k-list", p["k_list"], "--rate-list", p["rates"],
                "--restarts", str(p["restarts"]), "--output", self.report]

    def check_report(self) -> tuple[float, int]:
        """Criterion-6 invariants; returns (mean k=4 relative error, row count)."""
        with open(self.report, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        n, d = self.p["n"], self.p["d"]
        budgets = [math.ceil((1.0 - float(r)) * n * d) for r in self.p["rates"].split(",")]
        by_k = {k: [r for r in rows if int(r["k"]) == k] for k in (1, 4)}
        self.b.check(len(rows) == 2 * len(budgets) and all(len(v) == len(budgets)
                                                           for v in by_k.values()),
                     f"sweep report has {len(rows)} rows, expected k=1 and k=4 per budget")
        errors = []
        for budget, base, clustered in zip(sorted(budgets), by_k[1], by_k[4]):
            errors.append(float(clustered["relative_error"]))
            self.b.check(float(clustered["relative_error"]) < float(base["relative_error"]),
                         f"k=4 does not beat k=1 at budget {budget}")
            self.b.check(int(clustered["params"]) <= budget and int(base["params"]) <= budget,
                         f"params exceed budget {budget}")
        return statistics.fmean(errors), len(rows)

    def command(self):
        child = self.b.messi(self.sweep_args())
        rel_error, cells = self.check_report()
        return child, rel_error, self.p["n"] * cells

    def traced(self) -> dict[str, float]:
        setup_spans = self.traced_setup()
        untraced = self.b.messi(self.sweep_args())
        self.check_report()
        traced, spans = self.b.traced_messi(self.sweep_args(), "sweep")
        self.check_report()
        # The same EM with one thread: the gap to cluster.em_s is the cost of
        # running the restart pool on top of a multithreaded BLAS.
        _, serial_spans = self.b.traced_messi(self.sweep_args(threads=1), "serial")
        self.check_report()
        metrics = tracing.layer_metrics([setup_spans, spans], [serial_spans])
        return {**metrics, "io.bundle_bytes": 0, "ref.dense_gather_rows_per_s": 0.0,
                "trace.overhead_s": traced.wall_s - untraced.wall_s}


class CompressBert(PlantedMatrixWorkload):
    """`messi compress` at the BERT vocabulary shape, one restart, two iterations."""

    name = "compress-bert"

    def __init__(self, bench):
        super().__init__(bench)
        self.runs = 0

    def fresh_output(self) -> Path:
        """A new empty directory: --output is replaced wholesale by compress."""
        self.runs += 1
        out = self.b.work / f"bundle-{self.runs}"
        out.mkdir()
        return out

    def compress_args(self, out: Path) -> list[str]:
        p = self.p
        return ["--quiet", "--seed", str(self.em_seed), "compress", "--input", self.matrix,
                "--k", str(p["k"]), "--j", str(p["j"]), "--restarts", str(p["restarts"]),
                "--max-iters", str(p["max_iters"]), "--tol", "1e-12", "--output", str(out)]

    def check_bundle(self, compressed, out: Path) -> tuple[float, int]:
        """compress reports the fixed iteration count and evaluate confirms the
        bundle; returns (relative error, bundle bytes) and deletes the bundle."""
        fields = _stdout_fields(compressed.stdout)
        self.b.check(fields.get("iterations") == str(self.p["max_iters"]),
                     f"compress ran {fields.get('iterations')} iterations, "
                     f"expected {self.p['max_iters']}")
        evaluated = self.b.messi(["evaluate", "--input", self.matrix, "--bundle", str(out)],
                                 require=False)
        fields = _stdout_fields(evaluated.stdout)
        self.b.check(evaluated.returncode == 0 and fields.get("residual_identity") == "ok",
                     f"evaluate exited {evaluated.returncode} with "
                     f"residual_identity={fields.get('residual_identity')}")
        size = _bytes_under(out)
        shutil.rmtree(out)
        return float(fields.get("relative_error", "nan")), size

    def command(self):
        out = self.fresh_output()
        child = self.b.messi(self.compress_args(out))
        rel_error, _ = self.check_bundle(child, out)
        return child, rel_error, self.p["n"]

    def traced(self) -> dict[str, float]:
        setup_spans = self.traced_setup()
        out = self.fresh_output()
        untraced = self.b.messi(self.compress_args(out))
        self.check_bundle(untraced, out)
        out = self.fresh_output()
        traced, spans = self.b.traced_messi(self.compress_args(out), "compress")
        _, size = self.check_bundle(traced, out)
        # A single restart never uses the pool, so the run is already serial.
        metrics = tracing.layer_metrics([setup_spans, spans])
        return {**metrics, "io.bundle_bytes": size, "ref.dense_gather_rows_per_s": 0.0,
                "trace.overhead_s": traced.wall_s - untraced.wall_s}


class ServeLookup(Workload):
    """Forward pass of the compressed layer: Zipf id batches in a closed loop."""

    name = "serve-lookup"

    def __init__(self, bench):
        super().__init__(bench)
        self.bundle: Path | None = None
        self.rel_error = math.nan
        self.setups = 0

    def setup_args(self, bundle: Path, out: str) -> list[str]:
        p = self.p
        return ["serve-setup", "--n", str(p["n"]), "--d", str(p["d"]),
                "--k-true", str(p["k_true"]), "--j-true", str(p["j_true"]),
                "--noise", str(p["noise"]), "--k", str(p["k"]), "--j", str(p["j"]),
                "--seed", str(self.b.seed), "--bundle", str(bundle), "--out", out]

    def setup(self, extra: tuple[str, ...] = ()) -> float:
        """Write a bundle without EM; returns the set-up time without its checks."""
        self.setups += 1
        bundle = self.b.work / f"bundle-{self.setups}"
        out = self.b.path("setup.json")
        child = self.b.worker([*self.setup_args(bundle, out), *extra])
        result = json.loads(Path(out).read_text())
        self.b.check(result["residual_ok"], "squared reconstruction error disagrees with cost")
        self.b.check(0.0 < result["rel_error"] < 1.0,
                     f"relative error {result['rel_error']} outside (0, 1)")
        if self.bundle is not None:
            shutil.rmtree(self.bundle)
        self.bundle, self.rel_error = bundle, result["rel_error"]
        return child.wall_s - result["check_s"]

    def serve(self, ready_reps: int, seconds: float, extra: tuple[str, ...] = ()
              ) -> tuple[object, dict]:
        out = self.b.path("serve.json")
        child = self.b.worker(["serve", "--bundle", str(self.bundle), "--seed", str(self.b.seed),
                               "--seconds", str(seconds), "--batch", str(self.p["batch"]),
                               "--zipf", str(self.p["zipf"]), "--ready-reps", str(ready_reps),
                               "--out", out, *extra])
        result = json.loads(Path(out).read_text())
        self.b.attempted += result["checked"]
        self.b.failed += result["failed"]
        if result["failed"]:
            print(f"check failed: {result['failed']} lookup batches differ from "
                  f"reconstruct(f)[ids]", file=sys.stderr)
        return child, result

    def end_to_end(self) -> dict[str, float]:
        # Serving runs in one segment after each set-up, so that its samples
        # span the whole run: this machine's speed drifts by 10-20% over tens
        # of seconds, and one segment at the end would sample a single phase.
        setups, segments = [], []
        for _ in range(self.setup_repeats):
            setups.append(self.setup())
            segments.append(self.serve(READY_REPEATS, self.b.seconds / self.setup_repeats))
        ready = [t for _, result in segments for t in result["ready_s"]]
        latencies = [t for _, result in segments for t in result["latencies_s"]]
        _, percentile = tail_percentile(latencies)
        self.notes.append(f"lookup batches = {len(latencies)}; p99_ms is the "
                          f"{percentile:.2f}th percentile (ten samples beyond it)")
        return {
            "setup_s": statistics.median(setups),
            "task_s": statistics.median(ready),
            "rows_per_s": self.p["batch"] * len(latencies) / sum(latencies),
            **_median_and_tail(latencies),
            "rel_error": self.rel_error,
            "peak_rss_mb": max(child.peak_rss_mb for child, _ in segments),
        }

    def traced(self) -> dict[str, float]:
        matrix = self.b.path("planted.npy")
        setup_spans_path = self.b.path("setup.spans")
        self.setup(("--spans", setup_spans_path, "--matrix", matrix))
        _, plain = self.serve(1, self.b.seconds)
        spans_path = self.b.path("serve.spans")
        _, traced = self.serve(1, self.b.seconds, ("--spans", spans_path, "--matrix", matrix))
        spans = [tracing.load_spans(setup_spans_path), tracing.load_spans(spans_path)]
        metrics = tracing.layer_metrics(spans)
        # Same work both ways: one ready phase plus the traced run's batch count.
        batches = len(traced["latencies_s"])
        plain_s = plain["ready_s"][0] + statistics.fmean(plain["latencies_s"]) * batches
        traced_s = traced["ready_s"][0] + sum(traced["latencies_s"])
        return {**metrics, "io.bundle_bytes": _bytes_under(self.bundle),
                "ref.dense_gather_rows_per_s": traced["dense_rows_per_s"],
                "trace.overhead_s": traced_s - plain_s}


WORKLOADS = {w.name: w for w in (SweepPlanted, CompressBert, ServeLookup)}
