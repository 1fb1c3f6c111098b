"""A fixed reference computation that gauges the machine's current speed.

On a shared machine the same pass can take 2 s or 3.7 s depending on what
the neighbours run, and that drift lasts minutes, so medians of raw pass
times differ between runs far more than any bound worth setting.  The
benchmark times this kernel before and after every pass and scales the
pass time by how much slower or faster than nominal the kernel ran at
that moment.  The kernel does not touch vem: it is a small fixed-step
integration of a spline-driven linear system built from the same kinds of
small numpy and scipy calls that dominate the solver.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import CubicSpline

# Kernel time on the machine the benchmark was tuned on (2-vCPU Xeon,
# Python 3.11, numpy 2.4); scaled pass times are seconds at that speed.
NOMINAL_S = 0.45

_A = np.array([[0.0, 1.0, 0.0], [-1.0, -0.1, 0.2], [0.0, 0.3, -0.5]])
_GRID = np.linspace(0.0, 1.0, 41)
_ROUNDS, _STEPS = 16, 400


def _field(t, y, coeffs):
    i = int(np.clip(np.searchsorted(_GRID, t, side="right") - 1, 0, _GRID.size - 2))
    dt = t - _GRID[i]
    c = coeffs[:, i, 0]
    u = ((c[0] * dt + c[1]) * dt + c[2]) * dt + c[3]
    return _A @ y + np.array([0.0, u, 0.0])


def kernel() -> float:
    """Classic RK4 over spline-driven dynamics; returns a checksum."""
    total = 0.0
    h = 1.0 / _STEPS
    for r in range(_ROUNDS):
        coeffs = CubicSpline(_GRID, np.sin(_GRID * (r + 1))[:, None], axis=0).c
        y, t = np.ones(3), 0.0
        for _ in range(_STEPS):
            k1 = _field(t, y, coeffs)
            k2 = _field(t + h / 2, y + h / 2 * k1, coeffs)
            k3 = _field(t + h / 2, y + h / 2 * k2, coeffs)
            k4 = _field(t + h, y + h * k3, coeffs)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        total += float(y @ y)
    return total


def timed() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
