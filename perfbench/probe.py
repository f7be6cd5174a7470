"""Machine-speed probe: a fixed piece of work timed while the benchmark runs.

On a shared virtual machine the same CLI round can take 1.6 times as long in
one minute as in the next, and a fixed piece of work slows at the same
moments (process CPU time slows with it, so timing CPU is no way out).
Timing this probe during the rounds measures how slow the machine is;
scaling a round's time by it gives the round's time at the reference
speed, which a change to churnnet moves and the machine's phases move far
less. The probe is more sensitive than the workloads (see SENSITIVITY). It
does the kinds of work the workloads do: CSV cells parsed into floats, and
small numpy products and sigmoids.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

# Seconds one probe takes at the reference speed: its median time on the
# machine the README describes. Only the scale of the reported figures
# depends on it.
REF_S = 0.0014
# The workloads slow by the probe's slowdown to this power. Between the
# machine's phases the probe's speed changes 1.9 times and the rounds' 1.4-1.6
# times; over five sets of ten runs per workload, powers of 0.7-0.8 gave the
# steadiest set medians of every scaled metric (within 1-15% of each other,
# against 2-29% at 1.0).
SENSITIVITY = 0.75

_rng = np.random.default_rng(0)
_TEXT = "\n".join(",".join(repr(float(v)) for v in row) for row in _rng.random((60, 20)))
_X = _rng.random((1, 21))
_W1 = _rng.random((21, 6))
_W2 = _rng.random((6, 21)) / 6.0


def work() -> float:
    total = 0.0
    for row in csv.reader(io.StringIO(_TEXT)):
        for cell in row:
            total += float(cell)
    a = _X
    for _ in range(40):
        a = 1.0 / (1.0 + np.exp(-(a @ _W1))) @ _W2
    return total + float(a.sum())


def seconds() -> float:
    """Wall time of one probe."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def slowdown(durations) -> float:
    """How many times slower than the reference speed the workloads ran while
    ``durations`` were probed: the median probe time over REF_S, to the power
    SENSITIVITY. The median, because single probes also flicker by 2x from
    one millisecond to the next."""
    return (statistics.median(durations) / REF_S) ** SENSITIVITY
