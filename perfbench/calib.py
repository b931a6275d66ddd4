"""Calibration kernel: converts wall time to time at a fixed reference speed.

On a shared virtual machine, processor speed drifts by well over a
tenth within minutes, and wall time and process CPU time drift together.
A fixed pure-Python kernel, made of the same ingredients as minorkit's
engines (ints as bit masks, sets, dicts, tuples), is timed right next to
the jobs. A job's reference-speed time is its wall time times
REFERENCE_SECONDS over the kernel time measured around it.
"""

import gc
import statistics
import time

# Kernel time, in seconds, on the machine the reference figures in the
# README were taken on (median of the timed repetitions, unloaded).
REFERENCE_SECONDS = 0.0050

# Timed repetitions per reading; one untimed repetition warms the caches.
REPEATS = 5


def _kernel():
    """Fixed work: mask reachability on a fixed 28-vertex graph under 37
    vertex bans per start vertex, tallied in a dict, folded into a set."""
    n = 28
    x = 12345
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 7 < 2:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    full = (1 << n) - 1
    acc = 0
    seen = {}
    for start in range(n):
        for banned in range(0, 1 << 8, 7):
            allowed = full & ~(banned << (start % 20))
            reach = 1 << start
            frontier = reach
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nb = masks[b.bit_length() - 1] & allowed & ~reach
                reach |= nb
                frontier |= nb
            key = (start, reach.bit_count() & 7)
            seen[key] = seen.get(key, 0) + 1
            acc ^= reach
    folded = set()
    for (s, c), v in seen.items():
        folded |= {s * 8 + c, v}
    return acc, len(folded)


def kernel_seconds():
    """One reading: the median of REPEATS timed kernel runs, with the
    garbage collector paused so the program's live heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Wall-clock spans with kernel readings taken between them.

    `mark()` takes a reading; each span is later scaled by the mean of the
    readings taken just before and just after it.
    """

    def __init__(self):
        self.readings = [kernel_seconds()]

    def mark(self):
        self.readings.append(kernel_seconds())
        return len(self.readings) - 1

    def factor(self, before):
        """Reference-speed factor for a span that started after reading
        `before` and ended before reading `before + 1`."""
        k = (self.readings[before] + self.readings[before + 1]) / 2
        return REFERENCE_SECONDS / k
