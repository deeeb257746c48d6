"""Time two source trees on one benchmark plan, in paired passes.

Usage, from the root of a checkout (stdlib only)::

    python3 tools/replay_ab.py TREE_A TREE_B --workload W --seed S [--passes N]

The plan is this checkout's ``perfbench/workloads.py`` plan for workload W
and seed S, sized by ``run_seconds`` in ``BENCHMARK.json`` as
``perfbench/run.py`` sizes it (the same plan that ``tools/same_bytes.py``
replays).  One persistent worker process per tree imports that tree's
``torified`` once.  A pass clears every ``lru_cache`` of the package, runs
``gc.collect()``, and then replays the whole plan in-process through
``torified.cli.main``, timed by ``time.perf_counter`` as a whole and op by
op.  Each op writes into a new ``io.StringIO``, as ``perfbench/child.py``
captures it, and the text is dropped: a buffer that is emptied and written
again leaves the fast path of ``StringIO.write``, which made a pass about
2.7 times as slow as the child's ops on ``listings``.  The workers take
turns, one pass each, and the one that goes first alternates from pair to
pair, so drift in the host's speed falls on both.

It prints each tree's median pass time and its median per-op p50 and p90
(each pass's median and 90th percentile op latency, by the inclusive method
that ``perfbench/run.py`` uses, with the median taken over the passes), the
median over the pairs of the B/A time ratio, the number of pairs in which B
was faster, and how many ops raised in a pass, if any did.  Nothing in
``perfbench/`` is changed or run apart from the plan generator.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, make_plan  # noqa: E402


def _clear_caches() -> None:
    """Call every ``cache_clear`` found in a loaded ``torified`` module."""
    for name, module in list(sys.modules.items()):
        if name == "torified" or name.startswith("torified."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def worker(tree: str, workload: str, seed: int) -> None:
    """Replay the plan on ``tree`` once per line read from stdin, and write
    each pass's seconds, the number of ops that raised and the p50 and p90
    of its op latencies as one line."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from torified import cli

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = float(json.load(fh)["run_seconds"])
    ops = make_plan(workload, seed, seconds)
    with tempfile.TemporaryDirectory() as workdir:
        for op in ops:
            for rel, data in op.files.items():
                with open(os.path.join(workdir, rel), "w") as fh:
                    json.dump(data, fh)
        os.chdir(workdir)
        report = sys.stdout
        for _ in sys.stdin:
            _clear_caches()
            raised, latencies = 0, []
            start = time.perf_counter()
            for op in ops:
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        cli.main(op.argv)
                except Exception:  # timed all the same, and counted
                    raised += 1
                latencies.append(time.perf_counter() - t0)
            seconds = time.perf_counter() - start
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            report.write(f"{seconds} {raised} {statistics.median(latencies)} {p90}\n")
            report.flush()


class Worker:
    """The worker process of tree ``side`` ("a" or "b"), started with the
    caller's own arguments; calling it runs one pass and returns its seconds
    and its op p50 and p90."""

    def __init__(self, argv: list[str], side: str):
        argv = [sys.executable, os.path.abspath(__file__), *argv, "--worker", side]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.raised = 0

    def __call__(self) -> tuple[float, float, float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        seconds, raised, p50, p90 = line.split()
        self.raised = int(raised)
        return float(seconds), float(p50), float(p90)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=20, help="pairs of passes (default 20)")
    # the worker process of one tree
    p.add_argument("--worker", choices=("a", "b"), help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)
    if args.worker:
        worker(args.tree_a if args.worker == "a" else args.tree_b, args.workload, args.seed)
        return 0
    a, b = Worker(argv, "a"), Worker(argv, "b")
    try:
        a(), b()  # the first pass of a fresh process warms it up
        pairs = []
        for i in range(args.passes):
            if i % 2:
                tb, ta = b(), a()
            else:
                ta, tb = a(), b()
            pairs.append((ta, tb))
    finally:
        a.close()
        b.close()
    ratio = statistics.median(tb[0] / ta[0] for ta, tb in pairs)
    wins = sum(tb[0] < ta[0] for ta, tb in pairs)
    print(f"{args.workload} seed {args.seed}, {len(pairs)} pairs")
    for side, tree, passes in (("A", args.tree_a, [ta for ta, _ in pairs]),
                               ("B", args.tree_b, [tb for _, tb in pairs])):
        seconds, p50, p90 = (statistics.median(x) * 1e3 for x in zip(*passes))
        print(f"{side} median {seconds:.1f} ms, op p50 {p50:.3f} ms, op p90 {p90:.3f} ms  ({tree})")
    print(f"median B/A {ratio:.3f} ({(ratio - 1) * 100:+.1f} %), B faster in {wins}/{len(pairs)}")
    if a.raised or b.raised:
        print(f"ops that raised in a pass: A {a.raised}, B {b.raised}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
