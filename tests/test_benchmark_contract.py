"""The traced benchmark still reaches every function it wraps.

``perfbench/tracer.py`` wraps the library's public functions by name and
reads ``cache_info()`` of its cached ones; a renamed function, or one that
loses its ``lru_cache``, makes a traced run fail or drop metrics.  A short
traced run of the two workloads that exercise the lattice layer checks that
every per-layer metric declared in ``BENCHMARK.json`` is still reported.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    PER_LAYER = [m["name"] for m in json.load(fh)["per_layer"]]


@pytest.mark.parametrize("workload", ["cones", "fans"])
def test_traced_run_reports_every_per_layer_metric(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.3", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] and report["attempted"] > 0, proc.stdout
    assert [name for name in PER_LAYER if name not in report["metrics"]] == []
