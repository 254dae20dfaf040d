"""The host's current speed, read from a fixed loop, and times scaled by it.

On the reference machine (a 2-vCPU virtual machine on a shared host) a
fixed pure-Python loop ran up to 50% slower from one half-minute to the
next, with no steal time and with CPU time drifting just as wall time did.
The two vCPUs also ran at different speeds at the same moment (1.2 and
1.7 ms for the loop), and an operation may run on either or, with the
program's worker threads, on both. The timing metrics therefore divide each
measured interval by the loop's time averaged over the CPUs the process may
use, read right before and right after the interval, and multiply by REF_S,
the loop's usual time on the reference machine. A figure then reads as the
time the work would take at that usual speed: a faster program lowers it,
a faster or slower host moment does not.
"""

from __future__ import annotations

import os
import time

REF_S = 1.5e-3  # usual seconds of one kernel_seconds() reading on the reference machine
ROUNDS = 2      # timings per CPU; the fastest counts
MAX_CPUS = 4    # CPUs read per reading, the first ones the process may use


def _loop():
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _fastest():
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_seconds():
    """The fixed loop's time, fastest of ROUNDS on each CPU this thread may
    use, averaged over those CPUs: the host's speed now. The thread is pinned
    to each CPU in turn and its own CPU set restored afterwards, so threads
    the program starts later inherit the full set."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed)[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_fastest())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


def scaled(seconds, before, after):
    """`seconds` measured between two kernel_seconds() readings, at reference speed."""
    return seconds * REF_S / ((before + after) / 2)
