"""The host's speed at one moment, from fixed pieces of reference work.

The benchmark's host is a shared one: a core's speed flips between two
levels about 1.8x apart, and may stay at either for seconds or minutes,
for reasons outside the benchmark.  Timing a fixed piece of work next to
each request gives the host's slowdown at that moment, and dividing the
request's time by it gives the request's time at one nominal speed,
which moves only when the program does.

Work inside one process and the launch of a process slow down by
different amounts (on the tuning host, about 1.4x against 1.2x at the
same moment), so each is measured against work of its own kind:
pure-Python arithmetic for library requests, and the launch of a bare
interpreter for CLI requests and set-up.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

# Times of the reference work on a quiet core of an Intel Xeon vCPU at
# 2.0 GHz with CPython 3, the host the benchmark was tuned on.  Any
# constants would do; these make the scaled times read as seconds there.
ARITHMETIC_S = 0.00075
LAUNCH_S = 0.045


def arithmetic_slowdown() -> float:
    """A fixed sum of fractions, against its nominal time."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    return (time.perf_counter() - start) / ARITHMETIC_S


def launch_slowdown() -> float:
    """A bare interpreter started and ended, against its nominal time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (time.perf_counter() - start) / LAUNCH_S


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU, so that the
    reference work and the requests meet the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
