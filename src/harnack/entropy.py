"""Entropy of linear connectivity: estimators, hull bounds, ball chains.

The entropy of a point set S inside a domain D is the sup over point pairs
of the inf over connecting curves of length / clearance.  This module
provides hull-based upper bounds (diameter over certified hull clearance),
a grid estimator that returns a certified upper estimate together with
witness polylines, the ball-chain constructor those witnesses support, and
the resulting Harnack-distance bound (3 * 2^(d-2))^(2*eac + 1).

The grid estimator sweeps a ladder of clearance levels.  At each level it
builds one undirected graph for the whole set, whose nodes are the lattice
nodes and the set points, from the edges certified at that level.  One
Dijkstra call from every set point then gives every pair's shortest
certified path at that level.  The edges from a point to its nearby nodes
are certified once per point, and all segment certificates come from one
batched clearance evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Domain,
    Lattice,
    certified_segment_clearances,
    diameter,
    hull_clearance,
    interior_clearances,
    points_array,
)

__all__ = [
    "EacEstimate",
    "BallChain",
    "eac_hull_bound",
    "eac_estimate",
    "build_ball_chain",
    "eac_harnack_bound",
]

DEFAULT_LEVELS = 24


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


def eac_hull_bound(domain: Domain, pts, resolution: float | None = None) -> float:
    """diameter(S) / certified clearance of the segmental hull of S; +inf when
    the hull does not certify inside the domain; 0 for singletons."""
    p = points_array(pts, domain)
    if p.shape[0] == 1:
        return 0.0
    clear = hull_clearance(domain, p, resolution)
    if clear <= 0.0:
        return math.inf
    return diameter(p) / clear


def dijkstra(csgraph, **kwargs):
    """scipy.sparse.csgraph.dijkstra.  scipy is imported on the first call:
    its import takes longer than a command that runs no Dijkstra."""
    from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

    return scipy_dijkstra(csgraph, **kwargs)


def _grid_graph(lattice: Lattice):
    """Certified edges (ii, jj, lengths, cert) between lattice neighbours
    whose offset lies in {-1, 0, 1}^d (certification via endpoint+midpoint
    samples)."""
    nodes, clear = lattice.nodes, lattice.clear
    ii, jj, lengths = lattice.pairs(lattice.domain.dim)
    cm = lattice.domain.clearance(0.5 * (nodes[ii] + nodes[jj]))
    cert = np.minimum(np.minimum(clear[ii], clear[jj]), cm) - lengths / 4.0
    return ii, jj, lengths, cert


def default_clearance_levels(clear: np.ndarray, grid_step: float) -> np.ndarray:
    """Geometric sweep of clearance levels up to the largest of the point
    clearances clear, from the grid step or half the least of them,
    whichever is smaller: a point closer to the boundary than about a grid
    step still gets certified edges to the lattice at the lowest levels."""
    lo = min(grid_step, float(clear.min()) / 2.0)
    return np.geomspace(lo, float(clear.max()), DEFAULT_LEVELS)


def eac_estimate(lattice: Lattice, pts, clearance_levels=None) -> EacEstimate:
    """Upper estimate of the entropy of linear connectivity of a finite set
    of points of lattice.domain, on the lattice's grid.

    For each pair and each clearance level r, shortest paths are computed on
    the subgraph of grid nodes and edges certified at clearance >= r, and
    the best length/r ratio is kept; the straight segment between the pair
    is always also a candidate at its own certified clearance.  Every
    reported value is an upper estimate of the true entropy because each
    witness polyline is a feasible curve with certified clearance.

    All pairs share one undirected graph per level, whose nodes are the
    lattice nodes and the set points, and one Dijkstra call from every set
    point; a path may pass through a third set point, as any curve in the
    domain may.  A point's edges (to the lattice nodes and set points
    within reach h*sqrt(d)) are certified once, not once per pair, and
    every segment certificate the estimator needs comes from one batch of
    clearance calls (certified_segment_clearances).
    """
    domain, grid_step = lattice.domain, lattice.step
    p, clear_p = interior_clearances(domain, pts)

    levels = (
        np.asarray(clearance_levels, dtype=float)
        if clearance_levels is not None
        else default_clearance_levels(clear_p, grid_step)
    )
    if np.any(levels <= 0) or np.any(np.diff(levels) < 0):
        raise ValueError("clearance levels must be positive and sorted")

    m = p.shape[0]
    if m == 1:
        return EacEstimate(0.0, {}, p, grid_step, tuple(levels.tolist()))

    ii, jj, lengths, cert = _grid_graph(lattice)
    n = lattice.nodes.shape[0]
    nodes = np.vstack([lattice.nodes, p])  # set point a is node n + a
    reach = grid_step * math.sqrt(domain.dim) + 1e-12
    pa, pb = np.triu_indices(m, 1)
    dxy = np.array([float(np.linalg.norm(p[a] - p[b])) for a, b in zip(pa, pb)])
    # edges src - dst: the grid edges, then from each set point to every
    # lattice node and every later set point within reach
    src, dst, weight = [ii], [jj], [lengths]
    for a in range(m):
        to_nodes = np.linalg.norm(nodes - p[a], axis=1)
        to_nodes[n : n + a + 1] = np.inf  # a itself, and the earlier points that link to a
        k = np.flatnonzero(to_nodes <= reach)
        src.append(np.full(k.size, n + a))
        dst.append(k)
        weight.append(to_nodes[k])
    src, dst, weight = map(np.concatenate, (src, dst, weight))

    # straight segments at h/10, point edges at h/2
    segs = certified_segment_clearances(
        domain,
        np.concatenate([p[pa], nodes[src[ii.size :]]]),
        np.concatenate([p[pb], nodes[dst[ii.size :]]]),
        np.repeat([grid_step / 10.0, grid_step / 2.0], [pa.size, src.size - ii.size]),
    )
    seg_clear, point_cert = np.split(segs, [pa.size])
    # the highest level at which an edge is certified: its own certificate,
    # and half a step less than the clearance of its lattice nodes
    node_top = np.concatenate([lattice.clear - grid_step / 2.0, np.full(m, np.inf)])
    top = np.minimum(np.concatenate([cert, point_cert]), np.minimum(node_top[src], node_top[dst]))

    # the straight segment, certified at its own best clearance
    best = [
        PairRecord(float(d) / c, c, p[[a, b]]) if c > 0 else PairRecord(math.inf, 0.0, p[[a, b]])
        for a, b, d, c in zip(pa, pb, dxy, seg_clear.tolist())
    ]
    import scipy.sparse as sp  # with dijkstra, so that other commands never load scipy

    for r in levels:
        r = float(r)
        keep = top >= r
        g = sp.csr_matrix((weight[keep], (src[keep], dst[keep])), shape=(n + m, n + m))
        dist, pred = dijkstra(
            g, directed=False, indices=n + np.arange(m - 1), return_predecessors=True
        )
        for k, (a, b) in enumerate(zip(pa, pb)):
            d = dist[a, n + b]
            # a record is replaced only by a strictly better ratio
            if d / r >= best[k].ratio:
                continue
            path = [n + b]
            while path[-1] != n + a:
                path.append(pred[a, path[-1]])
            best[k] = PairRecord(float(d) / r, r, nodes[path[::-1]])

    per_pair = {(int(a), int(b)): rec for a, b, rec in zip(pa, pb, best)}
    value = max((r.ratio for r in per_pair.values()), default=0.0)
    return EacEstimate(value, per_pair, p, grid_step, tuple(levels.tolist()))


def build_ball_chain(domain: Domain, x, y, C: float, estimate: EacEstimate) -> BallChain:
    """Equal-radius ball chain for a pair, built from the recorded witness.

    Centers are spaced along the witness polyline at arc length <= r/2, so
    consecutive centers satisfy the half-radius condition, and the hop count
    is at most 2C provided C strictly exceeds the recorded pair value.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        _, clear = interior_clearances(domain, x)
        return BallChain(np.vstack([x, x]), float(clear[0]))
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
