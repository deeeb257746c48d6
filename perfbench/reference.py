"""Host-speed probe, run as a sibling process of a workload child.

    python3 perfbench/reference.py

For every line read from stdin it runs a fixed piece of pure-Python work
(Fraction, tuple and dict operations, like the library's) and answers with
one line, ``<wall seconds> <CPU seconds>``.  It holds none of the program's
state (heap, caches, garbage), so its times follow the host alone.  It ends
at the end of its input.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction


def reference_loop():
    """(wall, CPU) seconds of the fixed work."""
    t, c = time.perf_counter(), time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 1)
        table[(i, i % 7)] = tuple(range(i % 5))
    s = 0
    for i in range(20000):
        s += (i * i) % 13
    return time.perf_counter() - t, time.process_time() - c


def main():
    for _ in sys.stdin:
        wall, cpu = reference_loop()
        print(f"{wall!r} {cpu!r}", flush=True)


if __name__ == "__main__":
    main()
