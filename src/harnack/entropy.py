"""Entropy of linear connectivity: estimators, hull bounds, ball chains.

The entropy of a point set S inside a domain D is the sup over point pairs
of the inf over connecting curves of length / clearance.  This module
provides hull-based upper bounds (diameter over certified hull clearance),
a grid estimator that returns a certified upper estimate together with
witness polylines, the ball-chain constructor those witnesses support, and
the resulting Harnack-distance bound (3 * 2^(d-2))^(2*eac + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .geometry import (
    Domain,
    certified_segment_clearance,
    diameter,
    dist_to_complement,
    hull_clearance,
    lattice_half_offsets,
    lattice_neighbors,
    lattice_points,
    points_array,
)

__all__ = [
    "EacEstimate",
    "BallChain",
    "GridDimensionError",
    "eac_hull_bound",
    "eac_estimate",
    "build_ball_chain",
    "eac_harnack_bound",
]

DEFAULT_LEVELS = 24


class GridDimensionError(ValueError):
    """Raised when a grid solver is asked for a dimension it refuses (d > 3)."""


@dataclass(frozen=True)
class PairRecord:
    ratio: float
    clearance: float
    polyline: np.ndarray  # (k, d) vertices, first and last are the pair


@dataclass(frozen=True)
class EacEstimate:
    """Certified upper estimate of the entropy with per-pair witnesses."""

    value: float
    per_pair: dict  # (i, j) -> PairRecord
    points: np.ndarray
    grid_step: float
    clearance_levels: tuple
    certified_upper: bool = True

    def pair_record(self, x, y) -> PairRecord:
        """Look up the record for a pair of points of the estimated set."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)

        def idx(p):
            hits = np.where(np.all(self.points == p, axis=1))[0]
            if hits.size == 0:
                raise KeyError(f"point {p.tolist()} is not in the estimated set")
            return int(hits[0])

        i, j = sorted((idx(x), idx(y)))
        if i == j:
            raise KeyError("pair lookup needs two distinct points")
        return self.per_pair[(i, j)]


@dataclass(frozen=True)
class BallChain:
    """Centers x_0 ... x_{l+1} of equal-radius balls certifying connectivity."""

    centers: np.ndarray
    radius: float

    @property
    def hops(self) -> int:
        return self.centers.shape[0] - 2


def eac_hull_bound(
    domain: Domain,
    pts,
    hull_kind: str = "segmental",
    resolution: float | None = None,
    star_center=None,
) -> float:
    """diameter(S) / certified hull clearance; +inf when the hull does not
    certify inside the domain; 0 for singletons."""
    p = points_array(pts, domain)
    if p.shape[0] == 0:
        raise ValueError("empty point set")
    if p.shape[0] == 1:
        return 0.0
    clear = hull_clearance(domain, p, hull_kind, resolution, star_center)
    if clear <= 0.0:
        return math.inf
    return diameter(p) / clear


def _grid_graph(domain: Domain, grid_step: float):
    """Interior lattice nodes with clearances, plus certified edges between
    axis/diagonal neighbors (certification via endpoint+midpoint samples)."""
    nodes = lattice_points(domain, grid_step)
    n = nodes.shape[0]
    clear = domain.clearance(nodes) if n else np.zeros(0)
    ii, jj = lattice_neighbors(nodes, grid_step, lattice_half_offsets((1,) * domain.dim))
    if ii.size:
        lengths = np.linalg.norm(nodes[ii] - nodes[jj], axis=1)
        mids = 0.5 * (nodes[ii] + nodes[jj])
        cm = domain.clearance(mids)
        cert = np.minimum(np.minimum(clear[ii], clear[jj]), cm) - lengths / 4.0
    else:
        lengths = np.zeros(0)
        cert = np.zeros(0)
    return nodes, clear, ii, jj, lengths, cert


def _special_edges(domain, nodes, p, reach, grid_step):
    """Edges from an off-grid point p to grid nodes within `reach`."""
    if nodes.shape[0] == 0:
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
    dist = np.linalg.norm(nodes - p, axis=1)
    near = np.where(dist <= reach + 1e-12)[0]
    cert = np.array(
        [
            certified_segment_clearance(domain, p, nodes[j], grid_step / 2.0)
            for j in near
        ]
    )
    return near, dist[near], cert


def default_clearance_levels(domain: Domain, pts, grid_step: float) -> np.ndarray:
    """Geometric sweep of clearance levels from the grid step up to the
    largest point clearance."""
    p = points_array(pts, domain)
    top = float(domain.clearance(p).max())
    lo = min(grid_step, top)
    if top <= lo:
        return np.array([top])
    return np.geomspace(lo, top, DEFAULT_LEVELS)


def eac_estimate(
    domain: Domain,
    pts,
    grid_step: float,
    clearance_levels=None,
) -> EacEstimate:
    """Upper estimate of the entropy of linear connectivity of a finite set.

    For each pair and each clearance level r, shortest paths are computed on
    the subgraph of grid nodes and edges certified at clearance >= r, and
    the best length/r ratio is kept; the straight segment between the pair
    is always also a candidate at its own certified clearance.  Every
    reported value is an upper estimate of the true entropy because each
    witness polyline is a feasible curve with certified clearance.
    """
    p = points_array(pts, domain)
    if p.shape[0] == 0:
        raise ValueError("empty point set")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if domain.dim > 3:
        raise GridDimensionError(
            f"grid estimator refuses d={domain.dim} > 3; use eac_hull_bound instead"
        )
    clear_p = domain.clearance(p)
    if not np.all(clear_p > 0):
        raise ValueError("all points must be interior to the domain")

    levels = (
        np.asarray(clearance_levels, dtype=float)
        if clearance_levels is not None
        else default_clearance_levels(domain, p, grid_step)
    )
    if np.any(levels <= 0) or np.any(np.diff(levels) < 0):
        raise ValueError("clearance levels must be positive and sorted")

    if p.shape[0] == 1:
        return EacEstimate(0.0, {}, p, grid_step, tuple(levels.tolist()))

    nodes, clear, ii, jj, lengths, cert = _grid_graph(domain, grid_step)
    n = nodes.shape[0]
    d = domain.dim
    reach = grid_step * math.sqrt(d)

    per_pair: dict[tuple[int, int], PairRecord] = {}
    for a in range(p.shape[0]):
        for b in range(a + 1, p.shape[0]):
            x, y = p[a], p[b]
            # straight segment, certified at its own best clearance
            seg_clear = certified_segment_clearance(domain, x, y, grid_step / 10.0)
            best = None
            if seg_clear > 0:
                best = PairRecord(
                    float(np.linalg.norm(x - y)) / seg_clear,
                    seg_clear,
                    np.vstack([x, y]),
                )
            xi, xdist, xcert = _special_edges(domain, nodes, x, reach, grid_step)
            yi, ydist, ycert = _special_edges(domain, nodes, y, reach, grid_step)
            dxy = float(np.linalg.norm(x - y))
            direct_cert = (
                certified_segment_clearance(domain, x, y, grid_step / 2.0)
                if dxy <= reach
                else 0.0
            )
            for r in levels:
                node_ok = clear - grid_step / 2.0 >= r
                rec = _level_shortest_path(
                    nodes, n, ii, jj, lengths, cert, node_ok,
                    x, y, xi, xdist, xcert, yi, ydist, ycert,
                    dxy, direct_cert, float(r),
                )
                if rec is not None and (best is None or rec.ratio < best.ratio):
                    best = rec
            if best is None:
                best = PairRecord(math.inf, 0.0, np.vstack([x, y]))
            per_pair[(a, b)] = best

    value = max((r.ratio for r in per_pair.values()), default=0.0)
    return EacEstimate(value, per_pair, p, grid_step, tuple(levels.tolist()))


def _level_shortest_path(
    nodes, n, ii, jj, lengths, cert, node_ok,
    x, y, xi, xdist, xcert, yi, ydist, ycert,
    dxy, direct_cert, r,
):
    """Shortest certified path x -> y at clearance level r; None if absent."""
    rows, cols, data = [], [], []
    if ii.size:
        keep = (cert >= r) & node_ok[ii] & node_ok[jj]
        rows.append(ii[keep])
        cols.append(jj[keep])
        data.append(lengths[keep])
    kx = (xcert >= r) & node_ok[xi]
    rows.append(np.full(kx.sum(), n))
    cols.append(xi[kx])
    data.append(xdist[kx])
    ky = (ycert >= r) & node_ok[yi]
    rows.append(np.full(ky.sum(), n + 1))
    cols.append(yi[ky])
    data.append(ydist[ky])
    if direct_cert >= r:
        rows.append(np.array([n]))
        cols.append(np.array([n + 1]))
        data.append(np.array([dxy]))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    if rows.size == 0:
        return None
    g = sp.csr_matrix((data, (rows, cols)), shape=(n + 2, n + 2))
    dist, pred = dijkstra(
        g, directed=False, indices=n, return_predecessors=True
    )
    if not np.isfinite(dist[n + 1]):
        return None
    path = [n + 1]
    while path[-1] != n:
        path.append(pred[path[-1]])
    path.reverse()
    coords = np.vstack(
        [x if k == n else y if k == n + 1 else nodes[k] for k in path]
    )
    return PairRecord(float(dist[n + 1]) / r, r, coords)


def build_ball_chain(domain: Domain, x, y, C: float, estimate: EacEstimate) -> BallChain:
    """Equal-radius ball chain for a pair, built from the recorded witness.

    Centers are spaced along the witness polyline at arc length <= r/2, so
    consecutive centers satisfy the half-radius condition, and the hop count
    is at most 2C provided C strictly exceeds the recorded pair value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        r = dist_to_complement(domain, x)
        if r <= 0:
            raise ValueError("point must be interior")
        return BallChain(np.vstack([x, x]), r)
    rec = estimate.pair_record(x, y)
    if not math.isfinite(rec.ratio):
        raise ValueError("pair has no certified witness polyline")
    if C <= rec.ratio:
        raise ValueError("C must strictly exceed the entropy estimate for the pair")
    r = rec.clearance
    poly = rec.polyline
    if not np.array_equal(poly[0], x):
        poly = poly[::-1]
    seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    total = float(seg.sum())
    n_links = max(1, math.ceil(total / (r / 2.0)))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, total, n_links + 1)
    centers = np.empty((n_links + 1, poly.shape[1]))
    for k, t in enumerate(targets):
        i = min(np.searchsorted(s, t, side="right") - 1, len(seg) - 1)
        w = 0.0 if seg[i] == 0 else (t - s[i]) / seg[i]
        centers[k] = poly[i] + w * (poly[i + 1] - poly[i])
    centers[0], centers[-1] = x, y
    chain = BallChain(centers, r)
    bad = domain.clearance(centers) < r - 1e-12
    if np.any(bad):
        raise ValueError("witness polyline failed the ball-interiority check")
    return chain


def eac_harnack_bound(eac_value: float, dim: int) -> tuple[float, float]:
    """Harnack-distance bounds from an entropy upper bound: the sharp value
    (3 * 2^(d-2))^(2*eac + 1) and the rounded value 2^(2d(eac + 1)); a
    value beyond the float range is +inf."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if not (eac_value >= 0 and math.isfinite(eac_value)):
        raise ValueError(
            "entropy must be finite and >= 0 (infinite entropy means the set "
            "is not compactly contained in the domain)"
        )
    return (
        _power(3.0 * 2.0 ** (dim - 2), 2.0 * eac_value + 1.0),
        _power(2.0, 2.0 * dim * (eac_value + 1.0)),
    )


def _power(base: float, exponent: float) -> float:
    """base ** exponent, or +inf where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf
