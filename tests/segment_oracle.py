"""Per-segment reference for `geometry.certified_segment_clearances`: one
segment at a time, its samples from np.linspace, one clearance call each.
The batched function must give the same floats."""

import numpy as np

from harnack.geometry import _subdivisions


def segment_samples(a, b, resolution: float) -> tuple[np.ndarray, float]:
    """Uniform samples on [a, b] with spacing <= resolution, and the spacing.

    The subdivision count is a power of two so that halving the resolution
    gives nested sample sets (monotone certificates).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    length = float(np.linalg.norm(b - a))
    if length == 0.0:
        return a[None, :], 0.0
    n = _subdivisions(length, resolution)
    t = np.linspace(0.0, 1.0, n + 1)
    return a + t[:, None] * (b - a), length / n


def certified_segment_clearance(domain, a, b, resolution: float) -> float:
    """Certified lower bound on min clearance along [a, b] (Lipschitz rule)."""
    samples, spacing = segment_samples(a, b, resolution)
    m = float(domain.clearance(samples).min())
    return max(0.0, m - spacing / 2.0)
