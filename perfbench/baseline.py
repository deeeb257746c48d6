"""Run the benchmark over ten seeds and record medians and quartiles.

    python3 perfbench/baseline.py

For every workload in ``BENCHMARK.json`` it runs ``run.py`` once per seed in
SEEDS with ``--trace 0``, then once with ``--trace 1`` on the first seed, and
writes ``perfbench/baseline.json``.  Each end-to-end metric, scaled to the
reference host speed and unscaled, gets its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, (q3 - q1) / median; the
scaled spread is printed next to a third of the metric's bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SEEDS = list(range(1, 11))

# Which end-to-end metric each layer metric should move, and where it should not.
LAYER_MAP = [
    {"layer_metrics": ["torify.self_s", "torify.tori_built"],
     "moves": ["wall_s", "op_p90_ms", "peak_rss_mb"], "on": ["counts"], "not_on": ["cones", "fans"]},
    {"layer_metrics": ["cli.self_s", "cli.out_bytes"],
     "moves": ["wall_s", "op_p50_ms"], "on": ["listings"], "not_on": ["counts"]},
    {"layer_metrics": ["intlinalg.*"], "moves": ["wall_s", "op_p90_ms"],
     "on": ["cones", "fans"], "not_on": ["counts"]},
    {"layer_metrics": ["lattice.self_s", "lattice.*.hit_ratio"],
     "moves": ["wall_s", "op_p90_ms"], "on": ["fans"], "not_on": ["counts"]},
    {"layer_metrics": ["gadgets.*"], "moves": ["op_p90_ms", "fail_frac"],
     "on": ["cones", "listings (points_listed)"], "not_on": ["fans"]},
    {"layer_metrics": ["counting.self_s"], "moves": ["small everywhere"], "on": [], "not_on": []},
]

EXCLUSIONS = [
    "soule runs only on simplicial cones of kernel rank <= 1 (Hilbert-basis sizes 3-5), under "
    "signed permutations checked to give (m+1)^n homs at m = 2 and 3: with kernel rank 2 or more "
    "the hom enumeration over-counts or raises BoundTooSmall (ROADMAP item 1), so no timed op "
    "fails; the repros 1,0;2,5 1,0;3,7 and 1,0;1,7 are checked in selftest.py",
    "larger Hilbert bases are left out to keep runs short: the 3-D cone (1,0,0),(0,1,0),(1,2,5) "
    "has 8 generators and its soule --m 2 runs for 103 s, longer than a whole run",
    "listings leaves out flag 1 1 1 1 1 1 (7 s and 56 MB of JSON for one op)",
    "fans leave out (P^1)^4 (8.2 s per validate-fan) and P^n for n >= 5",
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    failing = [line.strip() for line in lines if line.strip().startswith("FAIL op")]
    unscaled = [json.loads(line.split(None, 1)[1]) for line in lines
                if line.strip().startswith("unscaled ")]
    return json.loads(lines[-1]), failing, unscaled[0] if unscaled else None


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": platform.machine(), "run_seconds": seconds, "seeds": SEEDS,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0|1",
           "layer_map": LAYER_MAP, "exclusions": EXCLUSIONS, "workloads": {}}
    for workload in whys:
        runs = []
        for seed in SEEDS:
            result, failing, unscaled = run(workload, seed, seconds, 0)
            runs.append((result, failing, unscaled))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"why": whys[workload],
                 "ops": [r["attempted"] for r, _, _ in runs],
                 "fail_frac": [r["failed"] / r["attempted"] for r, _, _ in runs],
                 "correct": [r["correct"] for r, _, _ in runs],
                 "failing_ops_seed_%d" % SEEDS[0]: runs[0][1],
                 "metrics": {}, "unscaled": {}}
        for name, metric in runs[0][0]["metrics"].items():
            entry["metrics"][name] = dict(stats([r["metrics"][name]["value"] for r, _, _ in runs]),
                                          unit=metric["unit"])
            entry["unscaled"][name] = dict(stats([u[name] for _, _, u in runs]), unit=metric["unit"])
            s, raw = entry["metrics"][name]["spread"], entry["unscaled"][name]["spread"]
            limit = bounds[name] / 3
            flag = "" if s < limit else "  <-- above a third of the bound"
            print(f"  {workload:9s} {name:12s} median {entry['metrics'][name]['median']:10.4g} "
                  f"spread {s:.4f} (bound/3 {limit:.4f}, unscaled {raw:.4f}){flag}", flush=True)
        traced, _, _ = run(workload, SEEDS[0], seconds, 1)
        entry["traced_seed_%d" % SEEDS[0]] = traced["metrics"]
        print(f"  {workload:9s} tracing overhead "
              f"{traced['metrics']['trace.overhead']['value']:.3f}", flush=True)
        out["workloads"][workload] = entry
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
