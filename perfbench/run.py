"""messi benchmark: one workload per call, checked, one JSON result line.

    python3 perfbench/run.py --workload sweep-planted --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the program is imported from ./src, and
all scratch files go under ./.perfbench_work and are removed at the end.
With --trace 0 the result carries the end-to-end metrics, measured with
tracing off; with --trace 1 it carries the per-layer metrics of a separate
traced run. Lines before the last describe the machine and list each metric
with its unit; the last line is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from harness import HERE, Bench, BenchError


def machine_info(root: Path) -> dict:
    """Where a result was measured. Reads /proc/cpuinfo only for the CPU model."""
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    l3 = "unknown"
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                            timeout=10).stdout.strip() or l3
    except (OSError, subprocess.SubprocessError):
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {key: {"name": deps.get(key, {}).get("name"),
                  "version": deps.get(key, {}).get("version"),
                  "config": deps.get(key, {}).get("openblas configuration")}
            for key in ("blas", "lapack")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache_bytes": l3,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def declared_metrics(mode: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="messi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "messi" / "__init__.py").is_file():
        print(f"no messi sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    mode = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(mode)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, work, args.seed, args.seconds, args.size)
    try:
        workload = workloads.WORKLOADS[args.workload](bench)
        values = workload.traced() if args.trace else workload.end_to_end()
        machine = machine_info(root)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if set(values) != set(units):
        print(f"benchmark failed: metrics {sorted(set(values) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    if bench.attempted < 1 or any(not math.isfinite(v) for v in values.values()):
        print("benchmark failed: no checks ran or a metric is not finite", file=sys.stderr)
        return 1
    print("machine " + json.dumps(machine, sort_keys=True))
    for note in workload.notes:
        print(note)
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"fail_rate = {bench.failed / bench.attempted!r} ratio "
          f"({bench.failed} of {bench.attempted} checks failed)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
