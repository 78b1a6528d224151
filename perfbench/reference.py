"""A fixed job, timed between benchmark commands to follow the host's speed.

``rep.py`` starts one copy of this script per worker thread of a
repetition, as sibling processes.  For each line a copy reads on standard
input it runs ``job`` and prints the seconds the job took.  The copies wait on
their input while a command runs, so they never compete with it for a
processor, and their memory is not counted in the repetition's.

The job mixes what the workloads spend their time on: fresh 32 MB numpy
arrays, whose pages the kernel has to fault in, and interpreted Python.
Nothing in it depends on ``ustatlab``, so a change to the package cannot
move it.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def job() -> None:
    for _ in range(6):
        a = np.empty(4_000_000)
        a.fill(1.0)
        np.abs(a - 0.5)
    x = 0
    for i in range(400_000):
        x += i * i


def main() -> int:
    while sys.stdin.readline():
        start = time.perf_counter()
        job()
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
