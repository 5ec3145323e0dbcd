"""Process runner and check tally shared by the workloads."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
# Every child process is killed after this long; a run must end within 180 s.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (a measured program failed)."""


@dataclass
class Child:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


class Bench:
    """Shared state of one benchmark run: paths, settings and the check tally."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, size: str):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.attempted = 0
        self.failed = 0
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; checks run outside every timed interval."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def run(self, argv: list[str], require: bool = True) -> Child:
        """Run a child process; its wall time includes interpreter start-up."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(wall, proc.returncode, out_path.read_text(), err_path.read_text(),
                      usage.ru_maxrss / 1024.0)
        if require and child.returncode != 0:
            raise BenchError(f"{' '.join(argv[:4])} ... exited with {child.returncode}:\n"
                             f"{child.stderr[-2000:]}")
        return child

    def messi(self, args: list[str], require: bool = True) -> Child:
        """The messi command line, untraced."""
        return self.run([sys.executable, "-m", "messi.cli", *args], require)

    def worker(self, args: list[str]) -> Child:
        return self.run([sys.executable, str(HERE / "worker.py"), *args])

    def traced_messi(self, args: list[str], tag: str) -> tuple[Child, list[dict]]:
        """The messi command line in a worker that records spans."""
        spans = self.path(f"{tag}.spans")
        child = self.worker(["cli", "--spans", spans, "--", *args])
        return child, tracing.load_spans(spans)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
