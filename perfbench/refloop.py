"""A fixed reference loop, timed beside every measured interval.

On a shared virtual machine the speed a process gets drifts: on a 2-vCPU
cloud VM the same benchmark op took 1.0x to 2.0x its fastest time within
150 seconds, and a fixed loop of interpreted Python slowed with it. Raw
wall times then differ by more than 25% between runs of the same code. The
benchmark therefore times this loop, which never calls ``latfun``, beside
every op and every set-up, and reports each interval scaled to the speed
at which the loop takes ``REF_S``:

    scaled = wall * REF_S / (loop time around the interval)

A change to the library moves the scaled time as it moves the wall time;
a change in the host's speed moves both the op and the loop, and cancels.

The loop is interpreted Python: a tight arithmetic loop, and object, dict,
sort and string work. On that VM, with each op of the four workloads
timed next to candidate loops over 100 to 150 s, this pair followed the
ops best overall: scaled op times over 5 s windows spread 6-21% (largest
minus smallest over median), against 34-99% unscaled. Adding an in-place
numpy array loop or a random gather from a 16 MB array helped one workload
and hurt others. Raw wall times are kept in each run's record.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.002  # the reported seconds are seconds at the speed where one loop takes this
_ARITH_ITERS = 10_000
_KEYS = [f"k{i % 97}" for i in range(600)]


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


def _loop():
    s = 0
    for i in range(_ARITH_ITERS):
        s += i * i
    for _ in range(2):
        counts = {}
        for k in _KEYS:
            counts[k] = counts.get(k, 0) + 1
        points = [_Point(i * 0.5, i % 7) for i in range(300)]
        points.sort(key=lambda p: (p.b, -p.a))
        s += sum(p.at(1.5) for p in points)
        s += len(",".join(f"{v:d}" for v in counts.values()))
    return s


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def warm() -> float:
    """Run the loop once to pay its first-call costs; returns one timing."""
    _loop()
    return reference_s()


def scale_all(walls, loops):
    """Scale interval i by the mean of the loop times ``loops[i]`` (before
    it) and ``loops[i + 1]`` (after it)."""
    return [w * REF_S * 2.0 / (a + b) for w, a, b in zip(walls, loops, loops[1:])]


def scale_by_median(walls, loops):
    """Scale every interval by the median of ``loops``, taken around them all;
    for few long intervals, where one slow pass must not set a whole factor."""
    factor = REF_S / statistics.median(loops)
    return [w * factor for w in walls]
