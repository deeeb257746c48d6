"""Start-up cost of ``import torified.cli`` and of one command, per source tree.

Usage, from anywhere (stdlib only, Linux)::

    python3 tools/import_cost.py TREE [TREE ...] [--runs 15] [--argv "count --family affine 1"]

Each TREE is a checkout of the repository, for example one made with ``git
archive``.  Its ``src/torified/*.py`` files are copied into two temporary
directories, so a ``__pycache__`` the tree already holds plays no part:

- ``source``: every run compiles the modules, under
  ``PYTHONDONTWRITEBYTECODE=1`` (as ``perfbench`` runs on hosts that set it);
- ``cached``: one import writes the bytecode first, and the runs load it.

Each run is a fresh interpreter that reports the process CPU time its probe
took and its ``VmHWM`` (peak resident memory of the whole process) afterwards.
There are two probes:

- ``import``: ``import torified.cli``;
- ``count``: the import, then ``main(ARGV)`` with stdout sent to the null
  device.  ARGV is ``--argv`` split as a shell would split it, by default
  ``count --family affine 1``, which is what one ``torified`` invocation pays
  for its front end (parsing its argv included); any other command line gives
  that command's CPU time and peak memory, for example ``--argv "gadget
  --elements --group 6 --family affine 7"``.

The runs alternate between the trees, and the median over ``--runs`` runs is
printed per tree, case and probe.
"""

from __future__ import annotations

import argparse
import glob
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile

PROBE = """\
import os, sys, time
start = time.process_time()
import torified.cli
if {count}:
    sys.stdout = open(os.devnull, "w")
    torified.cli.main({argv!r})
cpu = time.process_time() - start
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(cpu, hwm, file=sys.__stdout__)
"""
CASES = ("source", "cached")
PROBES = ("import", "count")


def copy_package(tree: str, dest: str) -> str:
    """The tree's package sources, without bytecode, under ``dest``; returns
    the directory to put on the path."""
    sources = glob.glob(os.path.join(tree, "src", "torified", "*.py"))
    if not sources:
        raise SystemExit(f"error: no src/torified/*.py under {tree}")
    package = os.path.join(dest, "torified")
    os.makedirs(package)
    for path in sources:
        shutil.copy(path, package)
    return dest


def probe(path: str, case: str, what: str = "import", argv=None) -> tuple[float, float]:
    """CPU seconds of the probe ``what`` and VmHWM in MB, in a fresh
    interpreter; the ``count`` probe runs ``argv``."""
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if case == "source":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    code = PROBE.format(count=what == "count", argv=argv)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=path, capture_output=True, text=True, check=True
    ).stdout.split()
    return float(out[0]), int(out[1]) / 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", metavar="TREE")
    p.add_argument("--runs", type=int, default=15, help="fresh interpreters per tree and case")
    p.add_argument("--argv", default="count --family affine 1", type=shlex.split,
                   help="the command line of the count probe (default: %(default)s)")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for i, tree in enumerate(args.trees):
            for case in CASES:
                paths[i, case] = copy_package(tree, os.path.join(tmp, f"{i}-{case}"))
            probe(paths[i, "cached"], "cached")  # writes the bytecode
        samples = {(key, what): [] for key in paths for what in PROBES}
        for _ in range(args.runs):
            for (key, what), rows in samples.items():
                rows.append(probe(paths[key], key[1], what, args.argv))
    print(f"median of {args.runs} fresh interpreters")
    print(f"{'case':<8} {'probe':<7} {'cpu_ms':>8} {'VmHWM_MB':>9}  tree")
    for ((i, case), what), rows in samples.items():
        cpu = 1000 * statistics.median(c for c, _ in rows)
        hwm = statistics.median(m for _, m in rows)
        print(f"{case:<8} {what:<7} {cpu:8.1f} {hwm:9.2f}  {args.trees[i]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
