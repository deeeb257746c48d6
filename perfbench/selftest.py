"""Self-test of the benchmark itself (not of ``torified``).

    python3 perfbench/selftest.py

Checks, on smoke-sized runs (a minute or two in all):

- the same seed gives an identical op list, identical payload digests and an
  identical set of failing ops; a different seed gives different inputs;
- a smoke run of every workload prints every metric of ``BENCHMARK.json``
  with its unit, untraced and traced, and in the traced run the layer self
  times of every op fit within its traced wall time;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result;
- the ROADMAP item 1 repros, kept out of the timed workloads because they
  fail, either give the right count or still fail in their known way; which
  one is printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, make_plan  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_work", "selftest")
failures = []


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def child_report(workload, seed, seconds):
    workdir = os.path.join(SCRATCH, f"{workload}-{seed}-{len(failures)}-{os.urandom(4).hex()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--workdir", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_determinism():
    for workload in WORKLOADS:
        a = [op.describe() for op in make_plan(workload, 7, 3)]
        b = [op.describe() for op in make_plan(workload, 7, 3)]
        c = [op.describe() for op in make_plan(workload, 8, 3)]
        check(a == b, f"{workload}: seed 7 gives the same op list twice ({len(a)} ops)")
        check([o["argv"] for o in a] != [o["argv"] for o in c],
              f"{workload}: seeds 7 and 8 give different inputs")
        keys = [(o["kind"], tuple(o["argv"]), json.dumps(o["files"], sort_keys=True)) for o in a]
        check(len(set(keys)) == len(keys), f"{workload}: no input repeats within a run")
    for workload in ("cones", "fans"):
        r1 = child_report(workload, 7, 2)
        r2 = child_report(workload, 7, 2)
        d1 = [o["digest"] for o in r1["ops"]]
        check(d1 == [o["digest"] for o in r2["ops"]],
              f"{workload}: seed 7 gives identical payload digests ({len(d1)} ops)")
        f1 = {o["index"] for o in r1["ops"] if not o["ok"]}
        check(f1 == {o["index"] for o in r2["ops"] if not o["ok"]},
              f"{workload}: seed 7 gives the same failing ops ({sorted(f1)})")


def test_smoke_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        check(proc.returncode == 0, f"smoke run --trace {trace} exits 0")
        result = json.loads(lines[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"smoke run --trace {trace}: last line has exactly the four keys")
        if trace:
            fits = sum("self times fit within it: yes" in line for line in lines)
            check(fits == len(WORKLOADS), "smoke run --trace 1: per op, the layer self times "
                  f"fit within the traced wall time on {fits} of {len(WORKLOADS)} workloads")
        for workload in WORKLOADS:
            missing = []
            for m in bench[key]:
                got = result["metrics"].get(f"{workload}.{m['name']}")
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    missing.append(m["name"])
                elif not any(line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
                             for line in lines):
                    missing.append(m["name"] + " (not printed)")
            check(not missing, f"smoke run --trace {trace}: {workload} reports every {key} "
                  f"metric with its unit {missing or ''}")


def test_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "counts", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=170)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without sources: exit {proc.returncode} and no result line")


# ROADMAP item 1: (cone, m, expected homs = (m+1)^2, known wrong answer)
KNOWN_DEFECTS = (
    ("1,0;2,5", 2, 9, "over-counts homs (15 at this writing)"),
    ("1,0;3,7", 2, 9, "over-counts homs (33 at this writing)"),
    ("1,0;1,7", 2, 9, "raises BoundTooSmall"),
)


def test_known_defects():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from torified import cli

    for cone, m, want, defect in KNOWN_DEFECTS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["soule", "--m", str(m), f"--cone={cone}"])
        got = json.loads(out.getvalue())["result"] if out.getvalue() else None
        if code == 0 and got["enumerated_count"] == want:
            state = "fixed"
        elif code == 1 and got["enumerated_count"] > got["face_count"] == want:
            state = f"still present: enumerates {got['enumerated_count']} homs"
        elif code == 2 and "but bound" in err.getvalue():
            state = "still present: BoundTooSmall"
        else:
            state = None
        check(state is not None, f"soule --m {m} --cone={cone} (known defect: {defect}): "
              f"{state or f'exit {code}, a new kind of answer'}")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        test_determinism()
        test_known_defects()
        test_without_sources()
        test_smoke_metrics()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
