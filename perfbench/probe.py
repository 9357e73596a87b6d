"""Machine-speed probe.

On a shared host the speed of a CPU drifts by up to 1.5x over tens of
seconds, for every program alike.  `probe` times a fixed pure-Python
loop, which does none of credalmc's work; timed next to a query, it
measures the speed the machine ran at.  `scaled` converts a measured
time to the time it would have taken at the reference speed.
"""

from __future__ import annotations

import time

#: Median probe time on the machine the benchmark was defined on
#: (2 vCPUs, Intel Xeon, Python 3.11.7) when it ran at full speed.
PROBE_REF_S = 0.007


def probe() -> float:
    """Seconds one run of the fixed probe loop takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(60000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at reference speed."""
    return seconds * PROBE_REF_S / probe_s
