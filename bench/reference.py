"""Reference geometry and exact Harnack values, written apart from the library.

Everything here works on the domain JSON dictionaries that the CLI reads
(``{"dim": d, "shape": {...}}``) and uses only numpy, so the benchmark can
check the library's reports against computations it does not share code
with.  Nothing in this module imports ``harnack``.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _points(pts) -> np.ndarray:
    p = np.asarray(pts, dtype=float)
    return p[None, :] if p.ndim == 1 else p


def _segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from points (n, d) to the closed segment [a, b]."""
    ab = b - a
    t = np.clip((p - a) @ ab / float(ab @ ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + t[:, None] * ab), axis=1)


def _polygon_inside(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Crossing test: count edges that a ray from p towards +x crosses."""
    count = np.zeros(p.shape[0], dtype=int)
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        straddles = (a[1] <= p[:, 1]) != (b[1] <= p[:, 1])
        if a[1] == b[1]:
            continue
        x_cross = a[0] + (p[:, 1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
        count += straddles & (x_cross > p[:, 0])
    return count % 2 == 1


def signed_depth(domain: dict, pts) -> np.ndarray:
    """Depth inside the domain (positive) or minus the distance to it (negative).

    Inside a union of balls the depth is the largest single-ball depth, the
    same lower bound on the distance to the complement that the library uses.
    """
    p = _points(pts)
    s = domain["shape"]
    kind = s["type"]
    if kind == "ball":
        return float(s["radius"]) - np.linalg.norm(p - np.asarray(s["center"]), axis=1)
    if kind == "box":
        lo, hi = np.asarray(s["min"], dtype=float), np.asarray(s["max"], dtype=float)
        inner = np.minimum(p - lo, hi - p)
        excess = np.maximum(0.0, np.maximum(lo - p, p - hi))
        return np.where(inner.min(axis=1) > 0, inner.min(axis=1), -np.linalg.norm(excess, axis=1))
    if kind == "polygon":
        v = np.asarray(s["vertices"], dtype=float)
        edge = np.min(
            [_segment_distance(p, a, b) for a, b in zip(v, np.roll(v, -1, axis=0))], axis=0
        )
        return np.where(_polygon_inside(p, v), edge, -edge)
    if kind == "union_of_balls":
        c = np.asarray([b["center"] for b in s["balls"]], dtype=float)
        r = np.asarray([b["radius"] for b in s["balls"]], dtype=float)
        return (r[None, :] - np.linalg.norm(p[:, None, :] - c[None, :, :], axis=2)).max(axis=1)
    raise ValueError(f"unknown shape type {kind!r}")


def clearance(domain: dict, pts) -> np.ndarray:
    """Distance to the complement (a lower bound inside ball-union overlaps)."""
    return np.maximum(0.0, signed_depth(domain, pts))


def enclosing_radius(domain: dict, center) -> float:
    """Smallest R such that Ball(center, R) contains the domain."""
    c = np.asarray(center, dtype=float)
    s = domain["shape"]
    kind = s["type"]
    if kind == "ball":
        return float(np.linalg.norm(c - np.asarray(s["center"])) + s["radius"])
    if kind == "box":
        lo, hi = np.asarray(s["min"], dtype=float), np.asarray(s["max"], dtype=float)
        return float(np.linalg.norm(np.maximum(np.abs(lo - c), np.abs(hi - c))))
    if kind == "polygon":
        return float(np.linalg.norm(np.asarray(s["vertices"]) - c, axis=1).max())
    if kind == "union_of_balls":
        return max(float(np.linalg.norm(c - np.asarray(b["center"])) + b["radius"]) for b in s["balls"])
    raise ValueError(f"unknown shape type {kind!r}")


def bounding_box(domain: dict) -> tuple[np.ndarray, np.ndarray]:
    s = domain["shape"]
    kind = s["type"]
    if kind == "ball":
        c = np.asarray(s["center"], dtype=float)
        return c - s["radius"], c + s["radius"]
    if kind == "box":
        return np.asarray(s["min"], dtype=float), np.asarray(s["max"], dtype=float)
    if kind == "polygon":
        v = np.asarray(s["vertices"], dtype=float)
        return v.min(axis=0), v.max(axis=0)
    c = np.asarray([b["center"] for b in s["balls"]], dtype=float)
    r = np.asarray([b["radius"] for b in s["balls"]], dtype=float)
    return (c - r[:, None]).min(axis=0), (c + r[:, None]).max(axis=0)


def inradius_upper(domain: dict, step: float = 0.01) -> float:
    """An upper bound on the largest clearance in the domain."""
    s = domain["shape"]
    if s["type"] == "ball":
        return float(s["radius"])
    if s["type"] == "union_of_balls":
        return max(float(b["radius"]) for b in s["balls"])
    lo, hi = bounding_box(domain)
    axes = [np.arange(l, h + step, step) for l, h in zip(lo, hi)]
    grid = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    # every point lies within step * sqrt(d) / 2 of a grid node (1-Lipschitz)
    return float(clearance(domain, grid).max()) + step * math.sqrt(len(lo)) / 2.0


def polyline_clearance(domain: dict, poly, spacing: float) -> float:
    """Certified lower bound on the clearance along a polyline: each segment
    is sampled at a spacing of at most `spacing`, and its smallest sampled
    clearance loses half its own spacing (1-Lipschitz rule)."""
    p = np.asarray(poly, dtype=float)
    if p.shape[0] == 1:
        return float(clearance(domain, p).min())
    a, b = p[:-1], p[1:]
    lengths = np.linalg.norm(b - a, axis=1)
    n = np.maximum(1, np.ceil(lengths / spacing)).astype(int)
    seg = np.repeat(np.arange(a.shape[0]), n + 1)
    t = np.concatenate([np.linspace(0.0, 1.0, k + 1) for k in n])
    samples = a[seg] + t[:, None] * (b[seg] - a[seg])
    slack = (lengths / n / 2.0)[seg]
    return float((clearance(domain, samples) - slack).min())


def disk_exact(x, y, center, radius: float) -> float:
    """Harnack distance in a disk as exp of the hyperbolic distance, through
    cosh(dist) = 1 + 2|u - v|^2 / ((1 - |u|^2)(1 - |v|^2)) on the unit disk."""
    c = np.asarray(center, dtype=float)
    u = (np.asarray(x, dtype=float) - c) / radius
    v = (np.asarray(y, dtype=float) - c) / radius
    # cosh(dist) - 1, kept apart so that close points lose no digits
    k = 2.0 * float((u - v) @ (u - v)) / ((1.0 - float(u @ u)) * (1.0 - float(v @ v)))
    return 1.0 + k + math.sqrt(k * (k + 2.0))


def poisson_log_ratio(x, y, zeta, center, radius: float) -> np.ndarray:
    """log P(x, zeta) - log P(y, zeta) for the Poisson kernel of a d-ball."""
    c = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float) - c
    y = np.asarray(y, dtype=float) - c
    z = _points(zeta) - c
    d = x.size
    return (
        math.log(radius * radius - float(x @ x))
        - math.log(radius * radius - float(y @ y))
        - d * np.log(np.linalg.norm(z - x, axis=1))
        + d * np.log(np.linalg.norm(z - y, axis=1))
    )


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> float:
    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return max(fc, fd)


def ball_exact(x, y, center, radius: float, samples: int = 2048) -> float:
    """Harnack distance between two points of a d-ball.

    Every positive harmonic function on a ball is a Poisson integral, so the
    value is the largest Poisson-kernel ratio over boundary points.  The
    ratio depends on the boundary point only through its projection onto
    the plane through the centre, x and y, so the search runs over that
    great circle: a dense scan, then a golden-section refinement around
    the best sample, for each direction of the ratio.
    """
    c = np.asarray(center, dtype=float)
    u = np.asarray(x, dtype=float) - c
    v = np.asarray(y, dtype=float) - c
    if np.array_equal(u, v):
        return 1.0
    far, near = (u, v) if np.linalg.norm(u) >= np.linalg.norm(v) else (v, u)
    e1 = far / np.linalg.norm(far)
    w = near - (near @ e1) * e1
    if np.linalg.norm(w) < 1e-12 * radius:
        # collinear with the centre: any plane through the line will do
        w = np.eye(u.size)[int(np.argmin(np.abs(e1)))]
        w = w - (w @ e1) * e1
    e2 = w / np.linalg.norm(w)

    def ratio(theta, sign):
        t = np.atleast_1d(theta)
        zeta = c + radius * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2)
        return sign * poisson_log_ratio(x, y, zeta, c, radius)

    grid = 2.0 * np.pi * np.arange(samples) / samples
    step = 2.0 * np.pi / samples
    best = 0.0
    for sign in (1.0, -1.0):
        k = int(np.argmax(ratio(grid, sign)))
        best = max(
            best,
            _golden_max(lambda t: float(ratio(t, sign)[0]), grid[k] - step, grid[k] + step),
        )
    return math.exp(best)


def ball_from_center(dim: int, radius: float, rho: float) -> float:
    """(R + rho) R^(d-2) / (R - rho)^(d-1): the ball value from its centre."""
    return (radius + rho) * radius ** (dim - 2) / (radius - rho) ** (dim - 1)
