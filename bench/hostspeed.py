"""Host-speed calibration: a fixed reference task timed beside the workload.

On a shared host the CPU's speed for one process swings by up to about 2x,
in phases that last from a fraction of a second to minutes. Timing alone
then measures the neighbours as much as the program. The benchmark therefore
runs a reference, a fixed task that never calls the library, between pieces
of timed work, and scales each measured duration by

    nominal reference time / reference time measured around that piece

A duration is reported in seconds of a host on which the reference takes its
nominal time. There are three references, because a shared host slows
different kinds of work by different amounts: "python" (rational
arithmetic, dicts, small sets, sorting), "numpy" (the index arithmetic and
masked gathers of the classical layer's assignment scan) and "spawn" (start
a bare interpreter and wait for it to exit). Each workload names the one
that matches its dominant cost.

A change to the library moves the measured durations but not the reference,
so it shows in full; a host that slows down slows both, and that cancels.
"""
from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def python_reference() -> int:
    """About 5 ms of the interpreter work the library does."""
    rng = random.Random(7)
    total = Fraction(0)
    counts: dict[tuple[int, int, int], int] = {}
    members = 0
    for i in range(900):
        a, b = rng.randrange(1, 50), rng.randrange(1, 50)
        total += Fraction(a, b)
        key = (a % 7, b % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        members += len(frozenset(range(a % 9)) & frozenset(range(b % 9)))
    data = [rng.random() for _ in range(2000)]
    data.sort()
    return members + len(counts) + total.denominator % 7


def numpy_reference() -> int:
    """About 5 ms of digit extraction and masked table lookups over one chunk
    of 2**16 int64 indices, the shape of the classical layer's scan."""
    import numpy as np

    arr = np.arange(1 << 16, dtype=np.int64)
    table = np.zeros(9, dtype=bool)
    table[[0, 4, 8]] = True
    mask = np.ones(len(arr), dtype=bool)
    for k in range(5):
        codes = (arr // 3**k) % 3 * 3 + (arr // 3 ** (k + 1)) % 3
        mask &= table[codes] | (k > 1)
    return int(mask.sum())


def spawn_reference() -> int:
    """About 50 ms: start `python -c pass` and wait for it, the fixed part of
    every `ctx` command's start-up."""
    return subprocess.run([sys.executable, "-c", "pass"], check=True).returncode


# Each reference and its time on the 2-core VM the baseline was measured on,
# in that host's faster phase; the time fixes the scale of reported times.
REFERENCES = {
    "python": (python_reference, 0.0045),
    "numpy": (numpy_reference, 0.0050),
    "spawn": (spawn_reference, 0.050),
}


# Reference samples on either side of a segment that set its factor. Runs on
# the baseline VM spread least with 8: samples come every 0.25 s in the
# short-item workloads, so the median spans about 4 s of them.
NEAR = 8


def sample(kind: str = "python") -> float:
    """Seconds one run of the reference takes now. The garbage collector is
    paused, so the heap the program leaves behind does not change it."""
    fn = REFERENCES[kind][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        fn()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Times pieces of work with a reference sample between them.

    `mark()` takes a reference sample and starts a new segment; every
    duration added with `add` belongs to the current segment. `scaled()`
    gives each duration scaled by the median of the reference samples within
    NEAR of its segment on either side. One sample is too short to stand for
    the host's speed over a piece of work, and a median of 16 follows the
    host's phases while a preempted sample cannot move it far.
    """

    def __init__(self, kind: str = "python") -> None:
        self.kind = kind
        self.nominal = REFERENCES[kind][1]
        self.refs: list[float] = []
        self.pieces: list[tuple[int, float]] = []

    def mark(self) -> None:
        self.refs.append(sample(self.kind))

    def add(self, seconds: float) -> None:
        self.pieces.append((len(self.refs) - 1, seconds))

    def factor(self, segment: int) -> float:
        near = self.refs[max(0, segment - NEAR + 1) : segment + NEAR + 1]
        return self.nominal / statistics.median(near)

    def scaled(self) -> list[float]:
        factors = [self.factor(i) for i in range(len(self.refs))]
        return [seconds * factors[segment] for segment, seconds in self.pieces]


class Around:
    """Reference samples, two each, before and after a block of work;
    afterwards `factor`, from all four, scales a duration measured inside
    the block."""

    def __init__(self, kind: str = "python") -> None:
        self.cal = Calibrated(kind)
        self.factor = 1.0

    def __enter__(self) -> "Around":
        self.cal.mark()
        self.cal.mark()
        return self

    def __exit__(self, *exc) -> None:
        self.cal.mark()
        self.cal.mark()
        self.factor = self.cal.factor(1)
