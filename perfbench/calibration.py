"""A fixed piece of work that measures how fast the machine is right now.

The speed of a shared host drifts: on the 2-core machine of README.md the
same 6000-point solve took 2.0 to 3.4 s within a few minutes, and this
calibration 8 to 17 ms within a third of a second, with CPU time equal to
wall time.  The run loop therefore
interleaves short calibrations with the operations, and each timed metric
is multiplied by ``REFERENCE_S`` over the interquartile mean of the run's
calibrations: it reads as seconds on a machine where one calibration takes
``REFERENCE_S``.  The work never touches pdmdirac, so a change to the
program moves the metrics by exactly its own effect.

The work mixes what the workloads spend their time on: an interpreter loop
of small-array numpy calls (the Sturm recurrence of the oracle), vector
arithmetic on 6000-point grids (the states), and scalar Python (the sweep).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.014  # a calibration in the slower hours of the 2-core machine of README.md

_DIAG = np.linspace(1.0, 2.0, 1200)
_SHIFTS = np.array([0.25, 0.5, 0.75])
_X = np.linspace(-3.0, 3.0, 6000)


def _work():
    q = _DIAG[0] - _SHIFTS
    for i in range(1, _DIAG.shape[0]):
        q = _DIAG[i] - _SHIFTS - 0.1 / q
        q = np.where(np.abs(q) < 1e-300, -1e-300, q)
    acc = 0.0
    for _ in range(40):
        acc += float(np.sum(np.exp(-_X * _X) * np.cosh(0.5 * _X)))
    s = 0
    for i in range(30000):
        s += i % 7
    return q, acc, s


def measure() -> float:
    """Wall time of one calibration."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
