"""Smoke test of the benchmark at tiny sizes, plus its span arithmetic and lookup oracle."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracing import self_times
from worker import id_batches, reference_rows

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Checks one unit of work runs: a sweep report, a compressed bundle, a serve set-up.
CHECKS_PER_UNIT = {"sweep-planted": 7, "compress-bert": 2, "serve-lookup": 2}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_passes_every_check(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    units = CHECKS_PER_UNIT[workload]
    if workload == "serve-lookup":
        # Each set-up runs its checks and every lookup batch is checked.
        assert result["attempted"] > units
    else:
        assert result["attempted"] >= units and result["attempted"] % units == 0
    assert "fail_rate = 0.0 ratio" in proc.stdout
    assert not (ROOT / ".perfbench_work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep-planted", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_counts_parallel_children_once():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 8.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 4.0},
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 5.0, 3: 2.0}


def test_lookup_reference_equals_reconstruct_rows():
    from messi import (Clustering, SynthSpec, build_factorization, clustering_cost, forward,
                       generate_planted, reconstruct, refit_step)

    a, labels = generate_planted(SynthSpec(n=300, d=12, k_true=3, j_true=2,
                                           noise_sigma=0.05, seed=5))
    subspaces = refit_step(a, labels, 3, 4)
    f = build_factorization(a, Clustering(k=3, assignment=labels, subspaces=tuple(subspaces),
                                          cost=clustering_cost(a, labels, subspaces), q=2.0,
                                          iterations=0, converged=True))
    ids = next(id_batches(f.n, 64, seed=1, zipf=1.1))
    assert ids.min() >= 0 and ids.max() < f.n
    expected = reconstruct(f)[ids]
    np.testing.assert_allclose(reference_rows(f, ids), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.stack([forward(f, i) for i in ids.tolist()]), expected,
                               rtol=0, atol=1e-12)
