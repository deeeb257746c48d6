"""Start-up cost of ``import torified.cli``, per source tree.

Usage, from anywhere (stdlib only, Linux)::

    python3 tools/import_cost.py TREE [TREE ...] [--runs 15]

Each TREE is a checkout of the repository, for example one made with ``git
archive``.  Its ``src/torified/*.py`` files are copied into two temporary
directories, so a ``__pycache__`` the tree already holds plays no part:

- ``source``: every run compiles the modules, under
  ``PYTHONDONTWRITEBYTECODE=1`` (as ``perfbench`` runs on hosts that set it);
- ``cached``: one import writes the bytecode first, and the runs load it.

Each run is a fresh interpreter that imports ``torified.cli`` and reports the
process CPU time the import took and its ``VmHWM`` (peak resident memory of
the whole process) afterwards.  The runs alternate between the trees, and
the median over ``--runs`` runs is printed per tree and case.
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PROBE = """\
import time
start = time.process_time()
import torified.cli
cpu = time.process_time() - start
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(cpu, hwm)
"""
CASES = ("source", "cached")


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


def probe(path: str, case: str) -> tuple[float, float]:
    """CPU seconds of the import and VmHWM in MB, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if case == "source":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=path, capture_output=True, text=True, check=True
    ).stdout.split()
    return float(out[0]), int(out[1]) / 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", metavar="TREE")
    p.add_argument("--runs", type=int, default=15, help="fresh interpreters per tree and case")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for i, tree in enumerate(args.trees):
            for case in CASES:
                paths[i, case] = copy_package(tree, os.path.join(tmp, f"{i}-{case}"))
            probe(paths[i, "cached"], "cached")  # writes the bytecode
        samples = {key: [] for key in paths}
        for _ in range(args.runs):
            for key, path in paths.items():
                samples[key].append(probe(path, key[1]))
    print(f"import torified.cli, median of {args.runs} fresh interpreters")
    print(f"{'case':<8} {'cpu_ms':>8} {'VmHWM_MB':>9}  tree")
    for (i, case), rows in samples.items():
        cpu = 1000 * statistics.median(c for c, _ in rows)
        hwm = statistics.median(m for _, m in rows)
        print(f"{case:<8} {cpu:8.1f} {hwm:9.2f}  {args.trees[i]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
