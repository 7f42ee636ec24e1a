"""Exact Harnack-distance values and certified lower bounds.

The Harnack distance of a d-ball has a closed form for any two of its
points; the value from the center and the planar disk are special cases.
For other domains, subordination (a domain inside a ball B has a Harnack
distance at least that of B) makes the ball value a certified lower bound,
witnessed by the Poisson kernel of an enclosing ball at one boundary point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .geometry import Ball, Domain, interior_clearances

__all__ = [
    "LowerBoundCertificate",
    "ball_harnack_from_center",
    "ball_harnack_two_points",
    "poisson_witness_lower_bound",
]


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A certified lower bound on the Harnack distance with its witness."""

    method: str  # the bound's name: "poisson_witness" from poisson_witness_lower_bound
    value: float
    witness: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 1.0:
            raise ValueError("a Harnack-distance lower bound is always >= 1")


def _in_float_range(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("the Harnack distance exceeds the float range")
    return value


def ball_harnack_from_center(dim: int, radius: float, rho: float) -> float:
    """Exact Harnack distance in a d-ball between its center and a point at
    distance rho from the center: (R + rho) * R^(d-2) / (R - rho)^(d-1),
    evaluated as (1 + t) / (1 - t)^(d-1) with t = rho / R."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    if not 0 <= rho < radius:
        raise ValueError("point not interior: need 0 <= rho < radius")
    t = rho / radius
    denominator = (1.0 - t) ** (dim - 1)
    return _in_float_range((1.0 + t) / denominator if denominator > 0 else math.inf)


def _ball_pair(x, y, center, radius: float) -> tuple[float, np.ndarray]:
    """ball_harnack_two_points (inf beyond the float range) and a boundary
    point zeta whose Poisson kernel attains it.

    With r the ratio of the 2-D kernels a / |zeta - u|^2 and b / |zeta - v|^2,
    P(u, zeta) / P(v, zeta) = r^(d/2) (b/a)^(d/2 - 1); r is linear-fractional
    in the projection of zeta onto the plane of 0, u and v, so r and 1/r peak
    at the disk value s on its great circle.  In complex coordinates there,
    phi(z) = (z - q) / (1 - conj(q) z) turns the ratio of p (nearer the
    sphere) over q into that of w = phi(p) over 0: zeta = phi^-1(w / |w|).
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    c, x, y = (np.asarray(p, dtype=float) for p in (center, x, y))
    d = c.size
    if c.ndim != 1 or d < 2 or x.shape != c.shape or y.shape != c.shape:
        raise ValueError("center and points must be vectors of one dimension d >= 2")
    u, v = (x - c) / radius, (y - c) / radius
    a, b = 1.0 - float(u @ u), 1.0 - float(v @ v)
    if not (a > 0 and b > 0):
        raise ValueError("both points must be strictly inside the ball")
    k = 2.0 * float((u - v) @ (u - v)) / (a * b)
    s = 1.0 + k + math.sqrt(k * (k + 2.0))
    try:
        value = s ** (d / 2) * max(a / b, b / a) ** (d / 2 - 1)
    except OverflowError:
        value = math.inf

    p, q = (u, v) if a <= b else (v, u)
    e1 = p / np.linalg.norm(p) if p @ p > 0 else np.eye(d)[0]
    w = q - (q @ e1) * e1
    w -= (w @ e1) * e1  # again: when q is almost along e1, w is rounding noise
    e2 = w / np.linalg.norm(w) if w @ w > 0 else np.zeros(d)
    zp, zq = complex(p @ e1, 0.0), complex(q @ e1, q @ e2)
    zw = (zp - zq) / (1.0 - zq.conjugate() * zp)
    eta = zw / abs(zw) if zw else 1.0
    z = (eta + zq) / (1.0 + zq.conjugate() * eta)
    zeta = z.real * e1 + z.imag * e2
    return value, c + radius * zeta / np.linalg.norm(zeta)


def ball_harnack_two_points(x, y, center, radius: float) -> float:
    """Exact Harnack distance between two points of a d-ball, any d >= 2: the
    largest ratio of Poisson kernels, s^(d/2) * max(a/b, b/a)^(d/2 - 1) with
    u, v the points rescaled to the unit ball, a = 1 - |u|^2, b = 1 - |v|^2,
    k = 2|u - v|^2 / (ab) and s = 1 + k + sqrt(k (k + 2)) (the value in the
    disk through the center, x and y).  ValueError beyond the float range."""
    return _in_float_range(_ball_pair(x, y, center, radius)[0])


def _poisson_ratio(x, y, zeta, center, radius: float) -> float:
    """max(P(x, zeta) / P(y, zeta), its inverse), P the kernel of the ball."""
    u, v, z = ((np.asarray(p, dtype=float) - center) / radius for p in (x, y, zeta))
    log_ratio = math.log((1.0 - u @ u) / (1.0 - v @ v))
    log_ratio += u.size * math.log(np.linalg.norm(z - v) / np.linalg.norm(z - u))
    with np.errstate(over="ignore"):
        return float(np.exp(abs(log_ratio)))


def poisson_witness_lower_bound(domain: Domain, x, y) -> LowerBoundCertificate:
    """Lower bound from the Poisson kernels of balls enclosing the domain,
    which are positive harmonic on it: the exact value of the smallest
    enclosing balls centered at x, y and their midpoint and, for a ball
    domain, of the domain itself.  Each counts with the smaller of its closed
    form and the kernel ratio at its boundary point zeta, so the witness
    {center, radius, zeta} re-evaluates to at least the value."""
    (x, y), _ = interior_clearances(domain, x, y)
    balls = [(c, domain.enclosing_radius(c)) for c in (x, y, 0.5 * (x + y))]
    if isinstance(domain, Ball):
        balls.append((domain.center, domain.radius))

    best, witness = -math.inf, {}
    for c, radius in balls:
        value, zeta = _ball_pair(x, y, c, radius)
        value = min(value, _poisson_ratio(x, y, zeta, c, radius))
        if value > best:
            best = value
            witness = {"center": c.tolist(), "radius": float(radius), "zeta": zeta.tolist()}
    return LowerBoundCertificate(
        method="poisson_witness", value=min(max(1.0, best), sys.float_info.max), witness=witness
    )
