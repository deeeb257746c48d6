"""Check that two source trees print the same bytes on every benchmark op.

Usage, from the root of a checkout (stdlib only)::

    python3 tools/same_bytes.py PARENT_TREE [--seeds 1 2 3]

PARENT_TREE is another checkout of the repository, for example one made with
``git archive``.  For each seed and each workload of
``perfbench/workloads.py``, this checkout's plan, sized by ``run_seconds``
in ``BENCHMARK.json`` as ``perfbench/run.py`` sizes it, is replayed
in-process on each tree: one fresh process per tree, workload and seed, as ``perfbench``
runs it, so that caches carry from op to op.  Each op's stdout without its
``timing_ms`` line, its stderr and its exit code are compared between the
trees.  After the plans, ``spec`` and ``soule --m 3`` of the cones in
``LOWER_DIMENSIONAL``, whose monoids no benchmark op builds alone, are
replayed and compared the same way, under ``TORIFIED_BUDGET=1000``, and so
are the ``count``, ``zeta``, ``verify`` and ``gadget`` argv of ``COUNTING``,
at degrees beyond the benchmark's ladders, the listings of ``LISTINGS``,
larger than any benchmark op, and the ``gadget --elements`` argv of
``GADGETS``, on every built-in family past the ladders and on a fan file and
a torification file.  Then each demo of ``demos/`` is run on each
tree, the tree's own script against its own ``src``, and their stdout and
exit codes are compared.  Every op and demo that differs is printed, and the
exit code is 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, Op, make_plan  # noqa: E402

# the envelope's keys are sorted, so timing_ms sits between result and tool
TIMING_LINE = re.compile(r'^  "timing_ms": [0-9.e+-]+,\n', re.MULTILINE)

# cones of lower dimension than their lattice, replayed after the plans
LOWER_DIMENSIONAL = (
    "1,1,0;1,-1,0",
    "1,0,0,0;1,2,0,0;1,1,5,0",
    "0,1,0;5001,-1,0",  # refused: the quotient's basis has 5,002 elements
    "1,2,3",
    "1,1,1,0;1,-1,0,1;1,0,0,0",
    "1,0,1,0;0,1,1,0;-1,0,1,0;0,-1,1,0",  # not simplicial
    # refused: the budget counts the parallelepiped points of a triangulation
    # of the quotient's dual (1,193), and that count follows the coordinates
    # the dual is read in, so a change of chart shows here
    "1,2,1,-1;1,4,1,-3;-4,-1,-4,-1;-3,0,-3,2",
)
LOWER_DIMENSIONAL_BUDGET = "1000"

# in COUNTING and GADGETS, the argv after the first read the torification
# that the first one writes; ``verify`` takes a family only, so it does not
# read the file
TORIFICATION_FILE = "torification.json"
COUNTING = [["torify", "flag", "1", "2", "2", "1"]] + [
    [*command, *source]
    for source in (
        ["--family", "grassmannian", "8", "16"],
        ["--family", "flag", "2", "2", "2", "2"],
        ["--family", "sl", "7"],
        ["--family", "affine", "40"],
        ["--family", "projective", "40"],
        ["--family", "torus", "60"],
        ["--torification", TORIFICATION_FILE],
    )
    for command in (["count"], ["zeta"], ["verify", "--q", "2,3,5,7"], ["gadget", "--group", "2,3"])
    if command[0] != "verify" or source[0] == "--family"
] + [
    # the monomial rows of the signed binomial row and of q^N [n]_q! (q-1)^(n-1),
    # at degrees 1,500 and 399, past the benchmark's ladders
    [command, "--family", *family]
    for family in (["torus", "1500"], ["sl", "20"])
    for command in ("count", "zeta")
]

# listings past the benchmark's ladders: the one flag listing it leaves out
# (615,195 tori), cells up to A^18 (788,035 tori, 78 MB), labels of A^16 past
# numeric order, and a gadget point listing over Schubert cells
LISTINGS = [
    ["torify", "flag", "1", "1", "1", "1", "1", "1"],
    ["torify", "grassmannian", "3", "9"],
    ["torify", "affine", "16"],
    ["gadget", "--elements", "--group", "2", "--family", "flag", "1", "1", "1", "1", "1"],
]

# `gadget --elements` past the benchmark's ladders, on each built-in family,
# a fan file (the Hirzebruch surface F_2) and a torification file; the last
# is refused, N(3) of the flag type being over the default budget
FAN_FILE, FAN = "f2_fan.json", {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
                                "cones": [[0, 1], [1, 2], [2, 3], [3, 0]], "close_faces": True}
GADGETS = [["torify", "flag", "1", "2", "1"]] + [
    ["gadget", "--elements", "--group", *rest]
    for rest in (
        ["2", "--family", "sl", "3"],
        ["2,2", "--family", "projective", "5"],
        ["3", "--family", "grassmannian", "2", "6"],
        ["5", "--family", "affine", "6"],
        ["4", "--family", "torus", "6"],
        ["3", "--family", "toric", FAN_FILE],
        ["2,3", "--torification", TORIFICATION_FILE],
        ["2", "--family", "flag", "1", "1", "2", "2"],
    )
]
FIXED = {"counting": COUNTING, "large-listings": LISTINGS, "gadgets": GADGETS}


def fixed_ops(kind: str) -> list:
    """The argv of ``COUNTING``, ``LISTINGS`` or ``GADGETS``, or ``spec`` and
    ``soule --m 3`` of each cone of ``LOWER_DIMENSIONAL``, as plan ops."""
    argvs = FIXED.get(kind) or [[*command, "--cone", cone] for cone in LOWER_DIMENSIONAL
                                for command in (["spec"], ["soule", "--m", "3"])]
    ops = [Op(kind, argv, None, 0.0, {FAN_FILE: FAN} if FAN_FILE in argv else None)
           for argv in argvs]
    for index, op in enumerate(ops):
        op.index = index
    return ops


def replay(tree: str, workload: str, seed: int) -> None:
    """Run the plan on ``tree`` in this process; print one JSON record per op."""
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from torified import cli

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = float(json.load(fh)["run_seconds"])
    if workload == "lower-dimensional":
        os.environ["TORIFIED_BUDGET"] = LOWER_DIMENSIONAL_BUDGET
    if workload == "lower-dimensional" or workload in FIXED:
        ops = fixed_ops(workload)
    else:
        ops = make_plan(workload, seed, seconds)
    with tempfile.TemporaryDirectory() as workdir:
        for op in ops:
            for rel, data in op.files.items():
                with open(os.path.join(workdir, rel), "w") as fh:
                    json.dump(data, fh)
        os.chdir(workdir)
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op.argv)
            except Exception as exc:  # a raising op is compared by its exception
                code = f"raised {type(exc).__name__}: {exc}"
            if op.index == 0 and workload in ("counting", "gadgets"):
                with open(TORIFICATION_FILE, "w") as fh:
                    fh.write(out.getvalue())
            stdout = TIMING_LINE.sub("", out.getvalue())
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            print(json.dumps([op.index, op.argv, digest, err.getvalue(), code]))


def records(tree: str, workload: str, seed: int) -> list:
    argv = [sys.executable, os.path.abspath(__file__), tree, "--replay", workload, str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def demo_output(tree: str, name: str) -> tuple[str, int]:
    """stdout and exit code of ``demos/NAME`` of ``tree``, run on its ``src``."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, os.path.join(tree, "demos", name)], cwd=tree,
                          env=env, capture_output=True, text=True)
    return done.stdout, done.returncode


def compare(tree: str, workload: str, seed: int) -> tuple[int, int]:
    """(ops that differ, ops compared) for one workload and seed, printing each
    op that differs."""
    theirs, ours = records(tree, workload, seed), records(ROOT, workload, seed)
    differing = 0
    for a, b in zip(theirs, ours, strict=True):
        if a != b:
            differing += 1
            parts = zip(("stdout", "stderr", "exit"), a[2:], b[2:])
            what = [name for name, x, y in parts if x != y]
            print(f"{workload} seed {seed} op {a[0]} {' '.join(a[1])}: "
                  f"{', '.join(what)} differ", flush=True)
    return differing, len(ours)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree", help="the other checkout, compared with this one")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    # the child process that replays one tree, workload and seed
    p.add_argument("--replay", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.replay:
        replay(args.tree, args.replay[0], int(args.replay[1]))
        return 0
    differing = total = 0
    for seed in args.seeds:
        for workload in WORKLOADS:
            d, t = compare(args.tree, workload, seed)
            differing, total = differing + d, total + t
            print(f"{workload} seed {seed}: {t} ops compared", flush=True)
    print(f"{differing} of {total} ops differ")
    lower, argvs = compare(args.tree, "lower-dimensional", 0)
    print(f"{lower} of {argvs} lower-dimensional argv differ")
    counting, argvs = compare(args.tree, "counting", 0)
    print(f"{counting} of {argvs} counting argv differ")
    listings, argvs = compare(args.tree, "large-listings", 0)
    print(f"{listings} of {argvs} listing argv differ")
    gadgets, argvs = compare(args.tree, "gadgets", 0)
    print(f"{gadgets} of {argvs} gadget argv differ")
    demos = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))
    differing_demos = [name for name in demos if demo_output(args.tree, name) != demo_output(ROOT, name)]
    for name in differing_demos:
        print(f"demo {name}: stdout or exit differ", flush=True)
    print(f"{len(differing_demos)} of {len(demos)} demos differ")
    return 1 if differing or lower or counting or listings or gadgets or differing_demos else 0


if __name__ == "__main__":
    sys.exit(main())
