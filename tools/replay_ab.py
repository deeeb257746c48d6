"""Time two source trees on one benchmark plan, in paired passes.

Usage, from the root of a checkout (stdlib only)::

    python3 tools/replay_ab.py TREE_A TREE_B --workload W [--seed S] [--passes N]

The plan is this checkout's ``perfbench/workloads.py`` plan for workload W
and seed S (default 1), sized by ``run_seconds`` in ``BENCHMARK.json`` as
``perfbench/run.py`` sizes it (the same plan that ``tools/same_bytes.py``
replays).  W may also be one of the fixed groups of ``tools/same_bytes.py``
whose ops read no file that an earlier op writes: ``lower-dimensional`` (at
its budget), ``spec``, ``soule``, ``fan-files`` and ``large-listings``, whose
ops, from ``same_bytes.fixed_ops``, take no seed and reach inputs past the
benchmark's ladders.  One persistent worker process per tree imports that tree's
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
median over the pairs of the B/A ratio of the pass times, of the passes' op
p50 and of their op p90, each with the number of pairs in which B was faster,
and how many ops raised in a pass, if any did.  The paired ratios are the
ones to read: drift in the host's speed between pairs moves each side's
median, but it falls on both passes of a pair.  After that
summary it prints, per subcommand (an op's ``argv[0]``), each tree's median
over the passes of the time that pass spent in that subcommand's ops, and
the median over the pairs of the B/A ratio of those times, with the number
of pairs in which B was faster, so the share of a change that falls on
``spec`` and on ``soule`` in ``cones`` is visible, one line per subcommand
in the order of first appearance in the plan::

    soule  A 13.0 ms  B 13.1 ms  B/A 1.008 (+0.8 %), B faster in 9/20
    spec   A 58.0 ms  B 51.7 ms  B/A 0.892 (-10.8 %), B faster in 20/20

On ``cones`` and ``fans`` it then prints the same per catalogue class of
the ops' base entries, in name order (``c2`` ... ``c4n`` and ``g3`` ...
``g5``; ``proj``, ``prod``, ...), as ``perfbench/catalog.json`` names them,
so that the share of a change that falls on each class is visible too; ops
with no catalogue entry, those of the fixed groups among them, have none.

Nothing in ``perfbench/`` is changed or run apart from the plan generator,
and its catalogue is only read.
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

from same_bytes import LOWER_DIMENSIONAL_BUDGET, fixed_ops  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

# the fixed groups of tools/same_bytes.py whose ops read no file an earlier op writes
FIXED_GROUPS = ("lower-dimensional", "spec", "soule", "fan-files", "large-listings")


def _clear_caches() -> None:
    """Call every ``cache_clear`` found in a loaded ``torified`` module."""
    for name, module in list(sys.modules.items()):
        if name == "torified" or name.startswith("torified."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def _op_classes(ops) -> list:
    """The catalogue class of each op's base entry, or None for an op that
    has none (every op of ``counts``, ``listings`` and the fixed groups)."""
    with open(os.path.join(ROOT, "perfbench", "catalog.json")) as fh:
        catalog = json.load(fh)
    classes = {entry["id"]: entry["class"] for entries in catalog.values() for entry in entries}
    return [classes.get((op.ref or {}).get("base")) for op in ops]


def worker(tree: str, workload: str, seed: int) -> None:
    """Replay the plan on ``tree`` once per line read from stdin, and write
    each pass's seconds, the number of ops that raised, the p50 and p90 of
    its op latencies, its seconds per subcommand and its seconds per
    catalogue class as one JSON line."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from torified import cli

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = float(json.load(fh)["run_seconds"])
    if workload == "lower-dimensional":
        os.environ["TORIFIED_BUDGET"] = LOWER_DIMENSIONAL_BUDGET
    ops = make_plan(workload, seed, seconds) if workload in WORKLOADS else fixed_ops(workload)
    op_classes = _op_classes(ops)
    with tempfile.TemporaryDirectory() as workdir:
        for op in ops:
            for rel, data in op.files.items():
                with open(os.path.join(workdir, rel), "w") as fh:
                    json.dump(data, fh)
        os.chdir(workdir)
        report = sys.stdout
        for _ in sys.stdin:
            _clear_caches()
            raised, latencies, kinds = 0, [], dict.fromkeys((op.argv[0] for op in ops), 0.0)
            classes = dict.fromkeys(sorted(set(filter(None, op_classes))), 0.0)
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
            for op, cls, latency in zip(ops, op_classes, latencies):
                kinds[op.argv[0]] += latency
                if cls:
                    classes[cls] += latency
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            line = [seconds, raised, statistics.median(latencies), p90, kinds, classes]
            report.write(json.dumps(line) + "\n")
            report.flush()


class Worker:
    """The worker process of tree ``side`` ("a" or "b"), started with the
    caller's own arguments; calling it runs one pass and returns its seconds,
    its op p50 and p90, its seconds per subcommand and per catalogue class."""

    def __init__(self, argv: list[str], side: str):
        argv = [sys.executable, os.path.abspath(__file__), *argv, "--worker", side]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.raised = 0

    def __call__(self) -> tuple[float, float, float, dict[str, float], dict[str, float]]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        seconds, self.raised, p50, p90, kinds, classes = json.loads(line)
        return seconds, p50, p90, kinds, classes

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _paired(ratios: list[float]) -> str:
    """The median of paired B/A ratios, and in how many pairs B was faster."""
    ratio, wins = statistics.median(ratios), sum(r < 1 for r in ratios)
    return f"B/A {ratio:.3f} ({(ratio - 1) * 100:+.1f} %), B faster in {wins}/{len(ratios)}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("--workload", choices=WORKLOADS + FIXED_GROUPS, required=True)
    p.add_argument("--seed", type=int, default=1, help="a workload's plan seed (default 1)")
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
    seed = f" seed {args.seed}" if args.workload in WORKLOADS else ""
    print(f"{args.workload}{seed}, {len(pairs)} pairs")
    for side, tree, passes in (("A", args.tree_a, [ta for ta, _ in pairs]),
                               ("B", args.tree_b, [tb for _, tb in pairs])):
        seconds, p50, p90 = (statistics.median(x) * 1e3 for x in zip(*(t[:3] for t in passes)))
        print(f"{side} median {seconds:.1f} ms, op p50 {p50:.3f} ms, op p90 {p90:.3f} ms  ({tree})")
    # the pass time, then the pass's op p50 and p90, each as B/A within a pair
    for i, name in enumerate(("", "op p50 ", "op p90 ")):
        print(f"median {name}{_paired([tb[i] / ta[i] for ta, tb in pairs])}")
    for part in (3, 4):  # per subcommand, then per catalogue class, also B/A within a pair
        for key in pairs[0][0][part]:
            ka, kb = (statistics.median(t[part][key] for t in side) * 1e3 for side in zip(*pairs))
            ratios = [tb[part][key] / ta[part][key] for ta, tb in pairs]
            print(f"{key:<6} A {ka:.1f} ms  B {kb:.1f} ms  {_paired(ratios)}")
    if a.raised or b.raised:
        print(f"ops that raised in a pass: A {a.raised}, B {b.raised}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
