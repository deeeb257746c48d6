"""Seeded benchmark of the ``torified`` command line, end to end and per layer.

Usage, from the root of a checkout (stdlib only, nothing to build)::

    python3 perfbench/run.py --workload counts --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``counts``,
``listings``, ``cones`` and ``fans``.  Each run of a workload is a fresh child
process (``child.py``) under an address-space cap, so caches start empty and
peak RSS is the run's own.  The load is a closed loop with one client: ops
run back to back in one thread, one workload at a time.  No two ops of a run
share a family/parameter tuple, a cone or a fan, so the repeated-input share
is 0.  ``--seconds`` sets the amount of work: the plan takes ops in a fixed
order until their cost, estimated from constants measured when the benchmark
was written, reaches it, so a run measures about that long on the reference
machine and every commit runs the same ops for a given seed.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
over several fresh set-ups), ``wall_s`` and ``cpu_s`` (sums over the ops),
``ops_per_s`` (ops over ``wall_s``), ``op_p50_ms``, ``op_p90_ms`` and
``peak_rss_mb``.  Set-up and op latencies are process CPU times, and all
times are scaled to a fixed host speed by a reference loop that a sibling
process times between ops (see ``child.py``), because shared hosts drift by up
to 2x within minutes and lend the CPU to others; the unscaled values are
printed beside them as one JSON line.  With ``--trace 1`` a traced child gives
the per-layer metrics and an untraced child of the same plan the tracing
overhead.  Every op is checked after the timed phase; failing ops are listed
by input.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; ``correct`` is false when any op fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
TIME_LIMIT_S = 170.0  # whole invocation, per workload
SETUP_PROBES = 8


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="amount of work in estimated seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    return args


class RunFailed(Exception):
    """A child ended without a report: killed, out of time, or crashed."""


def run_child(args, workload, deadline, trace=0, setup_only=False):
    workdir = os.path.join(WORK_DIR, f"{workload}-{args.seed}-{os.getpid()}-{time.monotonic_ns()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--workdir", os.path.join(ROOT, workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{workload}-seed{args.seed}.jsonl.gz")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("no time left before the run limit")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"killed after {timeout:.0f} s (run time limit)") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        how = f"signal {-proc.returncode}" if proc.returncode < 0 else f"exit {proc.returncode}"
        raise RunFailed(f"child ended by {how}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """The p-th percentile (inclusive method) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[p - 1]


def end_to_end(report, setups, scaled=True):
    """The end-to-end metrics; with ``scaled=False`` from the unscaled times."""
    pre = "" if scaled else "raw_"
    lat = [o[pre + "latency_s"] for o in report["ops"]]
    n = len(lat)
    wall = report[pre + "wall_s"]
    return {
        "setup_s": (statistics.median(s[pre + "setup_s"] for s in setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (report[pre + "cpu_s"], "s"),
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 90) if n > 1 else 1000 * lat[0], "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def run_workload(args, workload):
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        plain = run_child(args, workload, deadline)
        traced = run_child(args, workload, deadline, trace=1)
        metrics = {k: (v["value"], v["unit"]) for k, v in traced["per_layer"].items()}
        metrics["trace.overhead"] = (traced["wall_s"] / plain["wall_s"], "ratio")
        metrics["trace.cpu_overhead"] = (traced["cpu_s"] / plain["cpu_s"], "ratio")
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
        least = traced["min_unattributed_s"]
        notes = [f"per op, layer self times + unattributed = traced op wall time; "
                 f"self times fit within it: {'yes' if least >= 0 else 'NO'} "
                 f"(least unattributed {least:.2e} s)"]
        return traced, metrics, notes
    setups = [run_child(args, workload, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    report = run_child(args, workload, deadline)
    setups.append(report)
    n = len(report["ops"])
    lo, mid, hi = report["speed"]
    unscaled = {k: v for k, (v, _) in end_to_end(report, setups, scaled=False).items()}
    notes = [f"op latency samples: {n} ({n - int(0.9 * n)} beyond p90); setup samples: {len(setups)}",
             f"host speed factor median {mid:.3f} (range {lo:.3f}-{hi:.3f})",
             "unscaled " + json.dumps(unscaled)]
    return report, end_to_end(report, setups), notes


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "torified", "cli.py")):
        print(f"error: no torified sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a torified checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads:
        try:
            report, metrics, notes = run_workload(args, workload)
        except RunFailed as exc:
            print(f"{workload}: RUN FAILED: {exc}")
            print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                              "failed": failed + 1, "metrics": {}}))
            return 1
        ops = report["ops"]
        bad = [o for o in ops if not o["ok"]]
        attempted += len(ops)
        failed += len(bad)
        correct = correct and not bad
        print(f"== {workload} (seed {args.seed}, {len(ops)} ops, "
              f"fail_frac {len(bad) / len(ops):.4f} = {len(bad)}/{len(ops)})")
        for note in notes:
            print(f"   {note}")
        for name, (value, unit) in metrics.items():
            samples = f"  (n={len(ops)})" if name in ("op_p50_ms", "op_p90_ms") else ""
            print(f"   {name:40s} {value:14.6g} {unit}{samples}")
        for o in bad:
            print(f"   FAIL op {o['index']} torified {' '.join(o['argv'])}: {o['reason']}")
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in metrics.items():
            all_metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
