"""Machine-speed calibration for the timed loops.

This benchmark runs on shared virtual machines. Their speed drifts by a
quarter or more over seconds and minutes, on wall time and CPU time alike,
and that drift moves a raw latency as much as a real change of the program
would. So a fixed reference kernel is timed right before and right after
every operation, and each operation's time is scaled by the speed the
kernel saw around it:

    scaled = measured * REF_NOMINAL_S / (mean of the kernel times before and after)

The `cli` workload's operations are whole processes, and a kernel in the
parent tracks their speed poorly: scaled that way, `cli` figures spread more
from run to run than raw ones. So each command runs through cli_calib.py,
which times the kernel inside the command's own process, before the import
and after the command; the time spent on those calls is taken off the
command's wall time, and the rest is scaled as above.

A scaled time is the time the operation would take on a machine where the
kernel takes exactly REF_NOMINAL_S. The kernel does not touch pinchjac, so
no change to the program moves it; it uses the same kinds of work as the
library (small-rational arithmetic, tuple hashing, dict and list traffic,
method calls), so a slower or faster machine moves both alike.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REF_NOMINAL_S = 0.002  # about what one kernel call takes on a 2-vCPU cloud VM
_ROUNDS = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def shifted(self, d):
        return _Point(self.x + d, self.y * d)


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    check = 0
    for r in range(_ROUNDS):
        table: dict[tuple, Fraction] = {}
        acc = Fraction(1)
        p = _Point(Fraction(r + 1, 3), Fraction(1, 2))
        for i in range(1, 40):
            q = Fraction(i, i + 2)
            acc = acc * q + Fraction(1, i)
            if acc.denominator > 1 << 64:
                acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 or 1)
            p = p.shifted(q)
            if p.y.denominator > 1 << 64:
                p = _Point(p.x, Fraction(1, i))
            table[(i % 7, i, r)] = acc
        keys = sorted(table, key=lambda k: (k[0], -k[1]))
        check += sum(hash(k) & 0xFF for k in keys) + len([v for v in table.values() if v > 1])
    return check


def timed_kernel() -> float:
    """Seconds for one kernel call, with the collector off: a collection
    would scan the program's heap and tie the kernel's time to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


