"""A fixed reference computation, timed on request, that gauges the host's speed.

    python3 perfbench/hostref.py

Each line read from standard input runs :func:`reference_work` once and
answers with its wall seconds on one line of standard output; the
process ends at end of input.  It runs as a process of its own that
never imports the program under test, so nothing the program does to
its interpreter (garbage-collector settings, heap state) can change the
reference.  See :class:`common.HostSpeed`.
"""

from __future__ import annotations

import gc
import sys
import time


def reference_work() -> int:
    """Dictionary and set building in pure Python: the kind of work the
    engines do, and as sensitive to the host's memory and cache speed."""
    table = {}
    for i in range(150000):
        table[i * 7919 % 1000003] = i
    return len({(k % 997, k) for k in table if k % 3})


def main() -> None:
    gc.disable()
    for _request in sys.stdin:
        started = time.perf_counter()
        reference_work()
        sys.stdout.write("%r\n" % (time.perf_counter() - started))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
