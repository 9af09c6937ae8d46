"""The calibration kernel: a fixed pure-Python loop timed beside the calls.

On a shared machine the wall time of the same call drifts by tens of
percent within a minute, while its ratio to a pure-Python loop timed right
next to it stays within a few percent.  Every time the benchmark reports is
therefore converted to seconds at a fixed reference speed:

    calibrated = wall * NOMINAL_S / kernel_wall

where kernel_wall is the kernel's time measured beside the call and
NOMINAL_S is the kernel's time at the reference speed (the median on the
machine where the benchmark was written; see README.md).

The kernel uses nothing from seqmin.
"""

import time

NOMINAL_S = 0.0050

_ROWS, _WIDTH = 300, 64


class _Mod:
    def __init__(self, p):
        self.p = p

    def is_zero(self, a):
        return a == 0

    def mul(self, a, b):
        return (a * b) % self.p

    def add(self, a, b):
        return (a + b) % self.p


def kernel():
    """The fixed unit of work; returns a checksum so nothing is skipped.

    Builds a few hundred short tuples, then folds them with method calls:
    allocation plus dispatch, as in seqmin's polynomial updates.  A kernel
    without the allocation tracked the machine's speed changes less well.
    """
    m = _Mod(7)
    rows = [tuple((i * j) % 7 for j in range(_WIDTH)) for i in range(_ROWS)]
    acc = 0
    for row in rows:
        for c in row:
            if not m.is_zero(c):
                acc = m.add(acc, m.mul(c, 3))
    return acc


def kernel_s():
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
