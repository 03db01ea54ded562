"""A fixed calibration kernel that reads the host's current speed.

On a shared host the speed of the same code drifts by tens of percent over
seconds to minutes, and process CPU time drifts with wall time, so neither
can tell a slower program from a slower host.  The benchmark therefore runs
a kernel between operations, made of parts that follow the program's own
kinds of work: a pure-Python loop (interpreter dispatch, integer arithmetic,
dict stores), numpy updates and ``exp`` on an 8192-element array (the size
of a Monte Carlo chunk), and round-trip formatting of float rows into CSV
text in memory (what the CLI does to write its outputs).  Host load slows
these kinds by different amounts, so each workload runs the parts that
match its own work (``workloads.KERNEL_PARTS``).  No part calls anything in
decarb, so a change to the program cannot move the kernel.

An operation's time scaled by ``Kernel.reference_s / kernel time`` (the
kernel runs just before and just after it) is its time at the reference
speed: on a host as fast as the reference host it equals the wall time.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.random.default_rng(0).standard_normal(8192)
_ROWS = np.random.default_rng(1).standard_normal((2000, 4)).tolist()


def _python_part() -> int:
    total = 0
    table = {}
    for i in range(30_000):
        total += (i * i) % 7
        table[i & 255] = total
    return total


def _numpy_part() -> float:
    x = _A.copy()
    for _ in range(75):
        x = x * 0.999 + _A * 0.001
        x += np.exp(-x * x) * 1e-3
    return float(x[0])


def _csv_part() -> int:
    return len("".join(",".join(repr(v) for v in row) + "\n" for row in _ROWS))


PARTS = {"python": _python_part, "numpy": _numpy_part, "csv": _csv_part}
# Median time of each part on the reference host, a 2-core Intel Xeon
# virtual machine with Python 3.11.7 and numpy 2.4.6 (see README.md).
REFERENCE_S = {"python": 0.0048, "numpy": 0.0037, "csv": 0.0095}


class Kernel:
    """The chosen parts, run one after the other."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = [PARTS[name] for name in parts]
        self.reference_s = sum(REFERENCE_S[name] for name in parts)

    def seconds(self) -> float:
        """Run the kernel once and return its wall time."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0
