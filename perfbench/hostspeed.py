"""A gauge of the host's CPU speed, to scale timings to a nominal host.

On a shared host the CPU's speed drifts by a quarter and more over minutes
(other tenants load the same cores and caches), far more than a run's own
noise.  ``probe`` times a fixed computation in CPU time of the calling
thread: an interpreter loop, NumPy on a small cache-resident buffer and
NumPy streaming through buffers of the size of a 1e5-particle array, like
the package's own hot paths.  Workers call it between ops, so it follows the
drift a run sees.  It uses none of the package's code, so a change to the
package cannot move it; being CPU time, neither can waiting for the
interpreter lock.

A run's times are multiplied, and its rates divided, by
``NOMINAL_PROBE_US / median(probes)``.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: A round figure near the probe's median on the 2-vCPU host the benchmark
#: was tuned on.
NOMINAL_PROBE_US = 2500.0

_VALUES = np.random.default_rng(0).normal(size=4096)
_SCRATCH = np.empty_like(_VALUES)
_BIG_VALUES = np.random.default_rng(1).normal(size=1 << 17)
_BIG_SCRATCH = np.empty_like(_BIG_VALUES)


def probe() -> float:
    """CPU seconds the fixed computation took on this thread."""
    t0 = time.thread_time()
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    for _ in range(16):
        np.exp(_VALUES, out=_SCRATCH)
        np.multiply(_SCRATCH, _VALUES, out=_SCRATCH)
        _SCRATCH.sort()
    for _ in range(3):
        np.exp(_BIG_VALUES, out=_BIG_SCRATCH)
        np.multiply(_BIG_SCRATCH, _BIG_VALUES, out=_BIG_SCRATCH)
        np.add(_BIG_SCRATCH, _BIG_VALUES, out=_BIG_SCRATCH)
    return time.thread_time() - t0


def factor(probes_s: Sequence[float]) -> float:
    """How much faster than nominal the host ran: multiply times by this."""
    return NOMINAL_PROBE_US / (statistics.median(probes_s) * 1e6)
