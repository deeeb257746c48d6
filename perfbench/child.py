"""One workload run in a fresh process (started by ``run.py``).

Set-up is the import of ``torified`` plus generating the plan and its fan
files.  The timed phase then calls ``torified.cli.main(argv)`` for each op in
turn, one thread, with stdout and stderr captured.  Between ops, outside the
per-op clocks, each op's output is set aside and a sibling process times a
reference loop, which scales the op's times to a fixed host speed (see
REFERENCE_S).  Only after the timed phase is every answer checked against its
reference.  The last stdout line is a JSON report for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Host speed.  The machines this runs on are shared: their speed drifts by
# up to 2x over minutes, and other tenants take the CPU away for seconds at a
# time.  So latencies and set-up are process CPU times (the load is one
# CPU-bound thread that never waits), and every time is scaled to a fixed
# reference speed.  A sibling process (``reference.py``) times a fixed loop
# before every op and after the last, while this process waits, so the loop
# never sees the op's heap or caches.  The speed of each CPU swings between
# two levels every few seconds, and the CPUs swing apart, so this process and
# its sibling are pinned to one CPU, and an op's wall (CPU) time is
# multiplied by REFERENCE_S over the median wall (CPU) time of the 12 loops
# nearest to it, 6 on each side.  Unscaled times are reported beside the
# scaled ones.
REFERENCE_S = 0.0025  # the loop's time on a quiet 2-core reference machine
WINDOW = 5
MEM_CAP_MB = 2048  # RLIMIT_AS of the child: a runaway op fails, the host is spared


class HostProbe:
    """The sibling running ``reference.py``; calling it times one loop."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self()  # the first loop of a fresh process warms it up
        return self

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        wall, cpu = self.proc.stdout.readline().split()
        return float(wall), float(cpu)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def speed_factors(refs, n):
    """Per op i (between refs[i] and refs[i+1]): REFERENCE_S / local median."""
    out = []
    for i in range(n):
        window = sorted(refs[max(0, i - WINDOW): i + WINDOW + 2])
        out.append(REFERENCE_S / window[len(window) // 2])
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None, help="gzipped JSON-lines file for the spans")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the sibling inherits it
    cap = MEM_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from torified import cli
    from workloads import check_op, make_plan, payload_digest

    ops = make_plan(args.workload, args.seed, args.seconds)
    os.makedirs(args.workdir)
    try:
        for op in ops:
            for rel, data in op.files.items():
                with open(os.path.join(args.workdir, rel), "w") as fh:
                    json.dump(data, fh)
        os.chdir(args.workdir)
        setup_cpu = time.process_time()
        with HostProbe() as probe:
            ref_cpu = statistics.median(probe()[1] for _ in range(5))
            setup = {"setup_s": setup_cpu * REFERENCE_S / ref_cpu, "raw_setup_s": setup_cpu}
            if args.setup_only:
                print(json.dumps(setup))
                return 0
            report = run_ops(cli, ops, args, probe, check_op, payload_digest)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(args.workdir, ignore_errors=True)
    report.update(setup)
    print(json.dumps(report))
    return 0


def run_ops(cli, ops, args, probe, check_op, payload_digest):
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli = sys.modules["torified.cli"]
    outputs = []
    latencies = []
    cpus = []
    refs = []
    for op in ops:
        refs.append(probe())
        if tracer is not None:
            tracer.op = op.index
        out, err = io.StringIO(), io.StringIO()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except MemoryError:
            code = "MemoryError"
        except Exception as exc:  # the op failed; the run goes on
            code = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpus.append(time.process_time() - c0)
        latencies.append(t1 - t0)
        # set the output aside as a file so it does not stay in memory
        path = f"op{op.index:05d}.out"
        with open(path, "w") as fh:
            fh.write(out.getvalue())
        outputs.append((path, code, err.getvalue()))
        del out
    refs.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_f = speed_factors([r[0] for r in refs], len(ops))
    cpu_f = speed_factors([r[1] for r in refs], len(ops))
    out_bytes = 0
    results = []
    for op, (path, code, stderr) in zip(ops, outputs):
        with open(path) as fh:
            text = fh.read()
        out_bytes += len(text.encode())
        payload = None
        if text:
            try:
                payload = json.loads(text)
            except ValueError:
                pass
        if isinstance(code, str):
            reason = code
        else:
            try:
                reason = check_op(op, code, payload, stderr)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                reason = f"unexpected payload shape: {type(exc).__name__}: {exc}"
        results.append({
            "index": op.index, "kind": op.kind, "argv": op.argv,
            "ok": reason is None, "reason": reason,
            "digest": payload_digest(payload) if payload else None,
            "latency_s": cpus[op.index] * cpu_f[op.index],
            "raw_latency_s": cpus[op.index],
        })
        os.remove(path)
    report = {"wall_s": sum(t * f for t, f in zip(latencies, wall_f)),
              "cpu_s": sum(c * f for c, f in zip(cpus, cpu_f)),
              "raw_wall_s": sum(latencies), "raw_cpu_s": sum(cpus),
              "speed": [min(cpu_f), statistics.median(cpu_f), max(cpu_f)],
              "peak_rss_mb": peak_rss_mb, "out_bytes": out_bytes, "ops": results}
    if tracer is not None:
        metrics, rows = tracer.summarize({op.index: latencies[op.index] for op in ops})
        metrics["cli.out_bytes"] = (out_bytes, "count")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["min_unattributed_s"] = min(r["unattributed_s"] for r in rows)
        if args.trace_out:
            tracer.write(os.path.join(ROOT, args.trace_out), rows)
    return report


if __name__ == "__main__":
    sys.exit(main())
