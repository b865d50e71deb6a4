"""The shared host's current speed, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more over tens of seconds, with no steal time and no frequency
change visible from inside: other tenants contend for caches, memory and
sibling hyperthreads.  Wall time and CPU time both follow that drift, so a
run that happens to land in a slow phase reads slow whatever the library
does.

``sample()`` times a fixed kernel that uses the same kinds of work as the
workloads (interpreted calls, complex arithmetic, ``cmath``/``math``
special functions, small numpy vector operations) and returns its runs per
CPU second.  The benchmark samples it between timed passes and scales each
pass's times to what they would read at ``REFERENCE_SPEED`` (see
``normalise``).  The kernel never calls the library, so a change to the
library moves the scaled figures exactly as it moves the raw ones; only the
host's drift is divided out.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

# Kernel runs per CPU second on the host the benchmark was calibrated on
# (a 2-vCPU x86-64 VM at 2.0 GHz, CPython 3.11), in a middle phase of its
# drift.  Only ratios between runs matter; the constant keeps the scaled
# figures close to the raw ones.
REFERENCE_SPEED = 2000.0

_GRID = np.linspace(-4.0, 4.0, 257)


def _step(z: complex, k: int) -> complex:
    w = cmath.log(z + 3.0) - z * cmath.exp(-abs(z))
    return w / (1.0 + abs(w)) + math.lgamma(1.0 + (k % 50) * 0.37)


def kernel() -> float:
    """A fixed amount of mixed interpreter, complex and numpy work."""
    acc = 0j
    parts: dict[int, complex] = {}
    for k in range(300):
        z = complex(k * 1e-2 - 1.5, 0.5 + k * 1e-3)
        acc += _step(z, k)
        parts[k & 31] = acc
    for k in range(8):
        x = 1.0 / (1.0 + np.exp(-2.0 * np.sinh(_GRID + 0.01 * k)))
        acc += float(np.dot(x, _GRID))
    return abs(acc) + len(parts)


def sample(runs: int = 9) -> float:
    """Kernel runs per CPU second, measured now.

    Each run is timed on its own and the median taken: a run takes about
    half a millisecond, and the rare run that a host interrupt stretches
    several-fold must not read as a slow phase.
    """
    times = []
    for _ in range(runs):
        t0 = time.process_time()
        kernel()
        times.append(time.process_time() - t0)
    return 1.0 / statistics.median(times)


def normalise(seconds: float, speed: float) -> float:
    """``seconds`` measured while the kernel ran at ``speed``, scaled to what
    they would read at ``REFERENCE_SPEED``."""
    return seconds * speed / REFERENCE_SPEED
