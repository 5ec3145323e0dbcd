"""Spans around messi's public functions, recorded from outside the package.

`Tracer.install` replaces each function listed in WRAPPED at the module
attribute its callers look it up under (a `from .x import f` binds `f` in the
importing module, so `messi.cli.em_multi_restart` and
`messi.evalgen.em_multi_restart` are patched separately). Calls therefore nest
as cli -> evalgen -> cluster -> linalg without editing the package. Private
names are never wrapped, so assign, cost and masking inside `em_run` show up
as its self time.

Spans stay in memory and are written as JSON lines by `dump`. The span name
is "<layer>.<function>", the layer being the messi module that defines the
function. This module imports messi only inside `install`, so the metric
helpers below work in a process that never loads the package.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import threading
import time


def _fit_shape(args, kwargs, result):
    rows, cols = (args[0] if args else kwargs["points"]).shape
    return {"rows": int(rows), "cols": int(cols)}


def _em_iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# (module, attribute, span name, describe(args, kwargs, result) or None, fans out
# to a thread pool). A span that fans out becomes the parent of root spans that
# start in other threads while it is open.
WRAPPED = (
    ("messi.cli", "generate_planted", "evalgen.generate_planted", None, False),
    ("messi.cli", "run_sweep", "evalgen.run_sweep", None, False),
    ("messi.cli", "frobenius_error", "evalgen.frobenius_error", None, False),
    ("messi.cli", "em_multi_restart", "cluster.em_multi_restart", None, True),
    ("messi.cli", "build_factorization", "factorization.build_factorization", None, False),
    ("messi.cli", "reconstruct", "factorization.reconstruct", None, False),
    ("messi.evalgen", "generate_planted", "evalgen.generate_planted", None, False),
    ("messi.evalgen", "frobenius_error", "evalgen.frobenius_error", None, False),
    ("messi.evalgen", "em_multi_restart", "cluster.em_multi_restart", None, True),
    ("messi.evalgen", "build_factorization", "factorization.build_factorization", None, False),
    ("messi.evalgen", "reconstruct", "factorization.reconstruct", None, False),
    ("messi.cluster", "em_run", "cluster.em_run", _em_iterations, False),
    ("messi.cluster", "refit_step", "cluster.refit_step", None, False),
    ("messi.cluster", "best_fit_subspace", "linalg.best_fit_subspace", _fit_shape, False),
    ("messi.factorization", "build_factorization", "factorization.build_factorization", None, False),
    ("messi.factorization", "assemble_sparse", "factorization.assemble_sparse", None, False),
    ("messi.io", "load_matrix", "io.load_matrix", None, False),
    ("messi.io", "save_matrix", "io.save_matrix", None, False),
    ("messi.io", "load_bundle", "io.load_bundle", None, False),
    ("messi.io", "save_bundle", "io.save_bundle", None, False),
    ("messi.io", "write_report", "io.write_report", None, False),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_fanouts: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, fans_out: bool = False, **attrs):
        """Time the enclosed block as one span; yields a dict for extra attributes."""
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open_fanouts[-1] if self._open_fanouts else None
            rec = {"id": len(self.spans), "name": name, "parent": parent,
                   "thread": threading.get_ident(), "start": 0.0, "end": 0.0,
                   "attrs": dict(attrs)}
            self.spans.append(rec)
            if fans_out:
                self._open_fanouts.append(rec["id"])
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if fans_out:
                with self._lock:
                    self._open_fanouts.remove(rec["id"])

    def _wrap(self, fn, name, describe, fans_out):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, fans_out) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        return wrapper

    def install(self) -> "Tracer":
        for module_name, attr, name, describe, fans_out in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name, describe, fans_out))
        return self

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------- metrics

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children that ran in parallel threads are counted once per instant, so a
    fan-out parent's self time is the time no child was running.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [(max(lo, s["start"]), min(hi, s["end"]))
                   for lo, hi in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([c for c in clipped if c[1] > c[0]])
    return out


def svd_flops(rows: int, cols: int) -> float:
    """Flop model of a thin SVD with both factors (R-SVD: 6 m n^2 + 20 n^3, m >= n).

    This is a computed estimate (Golub & Van Loan's operation count), not a
    hardware counter.
    """
    m, n = max(rows, cols), min(rows, cols)
    return 6.0 * m * n * n + 20.0 * n ** 3


def layer_metrics(runs: list[list[dict]], serial_runs: list[list[dict]] | None = None
                  ) -> dict[str, float]:
    """Per-layer metrics of one traced workload: its set-up and timed runs.

    Each run is the span list of one traced process. serial_runs, when given,
    rerun the EM with threads=1, and their em_multi_restart time is
    cluster.em_serial_s. Without them the workload's EM is already serial (a
    single restart never uses the pool), so em_serial_s equals em_s.
    """
    spans = []
    for run in runs:
        selfs = self_times(run)
        spans.extend(dict(s, self=selfs[s["id"]]) for s in run)

    def named(name, among=spans):
        return [s for s in among if s["name"] == name]

    def total(name, among=spans):
        return sum(s["end"] - s["start"] for s in named(name, among))

    def self_total(name):
        return sum(s["self"] for s in named(name))

    fits = named("linalg.best_fit_subspace")
    fit_s = total("linalg.best_fit_subspace")
    flops = sum(svd_flops(s["attrs"]["rows"], s["attrs"]["cols"]) for s in fits)
    lookups = named("factorization.lookup")
    em_s = total("cluster.em_multi_restart")
    if serial_runs is None:
        em_serial_s = em_s
    else:
        em_serial_s = total("cluster.em_multi_restart", [s for run in serial_runs for s in run])
    return {
        "cli.self_s": self_total("cli.main"),
        "cluster.em_s": em_s,
        "cluster.em_self_s": self_total("cluster.em_run"),
        "cluster.restarts": len(named("cluster.em_run")),
        "cluster.iterations": sum(s["attrs"]["iterations"] for s in named("cluster.em_run")),
        "cluster.em_serial_s": em_serial_s,
        "linalg.fit_s": fit_s,
        "linalg.fit_calls": len(fits),
        "linalg.fit_gflops": flops / fit_s / 1e9 if fit_s > 0 else 0.0,
        "factorization.build_s": total("factorization.build_factorization"),
        "factorization.reconstruct_s": total("factorization.reconstruct"),
        "factorization.assemble_sparse_s": total("factorization.assemble_sparse"),
        "factorization.lookup_s": (statistics.median([s["end"] - s["start"] for s in lookups])
                                   if lookups else 0.0),
        "factorization.lookup_unique_share": (
            statistics.fmean([s["attrs"]["unique"] / s["attrs"]["ids"] for s in lookups])
            if lookups else 0.0),
        "io.load_matrix_s": total("io.load_matrix"),
        "io.save_bundle_s": total("io.save_bundle"),
        "io.load_bundle_s": total("io.load_bundle"),
        "evalgen.generate_s": total("evalgen.generate_planted"),
        "evalgen.frobenius_error_s": total("evalgen.frobenius_error"),
        "evalgen.sweep_self_s": self_total("evalgen.run_sweep"),
    }
