"""A fixed probe of how fast the shared machine runs at the moment.

The machines this benchmark runs on share their cores with other work.
For minutes at a time that work slows every computation here, a fixed
probe and the library alike, by up to 1.8x; no estimate taken from one
30-second run can tell such a slow spell from a slower program.  So the
benchmark runs this probe between commands and scales a run's command
times by how much slower than usual the probe ran in that run:

    scaled time = time * REFERENCE_S / (median probe time in the run)

The probe uses the benchmark's own reference code and never the library,
so a change to the library moves the scaled times exactly as it moves the
raw ones.  The raw times are printed to standard error beside them.

Only the workloads in SCALED are scaled.  The probe, like those
workloads, spends its time in the interpreter and on small arrays.
``set-separation`` spends its time streaming over arrays of up to a
gigabyte, and the slow spells that the probe sees barely touch it: over
four runs its unscaled wall_s spread by 2.9 % and its scaled one by 7.2 %.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import reference as ref
import workloads

# The probe's median time on the machine in bench/README.md, so that the
# scaled times stay close to that machine's raw ones.
REFERENCE_S = 3.5e-3
BURST = 3  # probes in a row
INTERVAL_S = 0.2  # command time per burst
SCALED = ("pair-sandwich", "set-entropy")
_DOMAIN = workloads.DOMAINS["lpoly"]
_POINTS = np.random.default_rng(1).uniform(-1.0, 1.0, size=(200, 2))


def probe() -> float:
    """Seconds taken by ten reference clearances of 200 points in the L-polygon."""
    start = time.perf_counter()
    for _ in range(10):
        ref.clearance(_DOMAIN, _POINTS)
    return time.perf_counter() - start


def burst() -> list:
    return [probe() for _ in range(BURST)]


def scale(samples: list) -> float:
    """Factor that takes a time measured beside these probe samples to the
    reference speed."""
    return REFERENCE_S / statistics.median(samples)
