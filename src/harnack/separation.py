"""Separation exponents and the Harnack bounds they certify.

The separation of two points is |x - y| divided by the sum of their
clearances; below 1 it certifies a single overlapping-ball link and the
pair bound 2^(2d) / (1 - q)^(2(d-1)).  For a set with a start point and a
hop budget l, a hop-limited minimax (bottleneck) dynamic program over a
grid discretization over-estimates the sup-inf separation, which feeds the
set bound 2^(2dl) / (1 - q)^((d-1)l).

`set_separation` runs that program on a sparse edge list over a `Lattice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Domain,
    Lattice,
    certified_segment_clearances,
    interior_clearances,
    points_array,
)

__all__ = [
    "SeparationResult",
    "pair_separation",
    "pair_bound",
    "sequence_separation",
    "set_separation",
    "set_harnack_bound",
    "chain_bound",
    "verify_between_conditions",
]


def _links(domain: Domain, *parts) -> tuple[np.ndarray, list[float]]:
    """The stacked parts, checked interior from one clearance call (see
    interior_clearances), and each link's q = |p_k - p_k+1| / (c_k + c_k+1)."""
    p, clear = interior_clearances(domain, *parts)
    c = clear.tolist()
    # sqrt(v . v) rounds as the norm of one vector, np.linalg.norm(v);
    # the row-wise norm of a matrix rounds differently in the last bit
    return p, [math.sqrt(v.dot(v)) / (a + b) for v, a, b in zip(np.diff(p, axis=0), c, c[1:])]


def pair_separation(domain: Domain, x, y) -> float:
    """|x - y| / (clearance(x) + clearance(y)); 0 for coincident points."""
    return _links(domain, x, y)[1][0]


def pair_bound(domain: Domain, x, y) -> tuple[float, float]:
    """Upper bounds (stated, proof_sharp) on the Harnack distance of a pair
    with separation q < 1: see pair_bound_from_q."""
    q = pair_separation(domain, x, y)
    return pair_bound_from_q(q, domain.dim)


def pair_bound_from_q(q: float, dim: int) -> tuple[float, float]:
    """The pair bounds at separation q < 1 in dimension d: the stated form
    2^(2d) / (1 - q)^(2(d-1)) and the proof-sharp form
    (2^(d-2) * (3 + q) / (1 - q)^(d-1))^2, the intermediate product of the
    midpoint construction, which is never larger.  A form beyond the float
    range is +inf; the stated form overflows first."""
    if not q < 1.0:
        raise ValueError(
            "separation condition violated: no single-link certificate (q >= 1)"
        )
    if q < 0:
        raise ValueError("separation must be >= 0")
    # (1-q)^(d-1) is 0 for q near 1 and large d
    try:
        stated = 2.0 ** (2 * dim) / (1.0 - q) ** (2 * (dim - 1))
    except (OverflowError, ZeroDivisionError):
        stated = math.inf
    try:
        proof_sharp = (2.0 ** (dim - 2) * (3.0 + q) / (1.0 - q) ** (dim - 1)) ** 2
    except (OverflowError, ZeroDivisionError):
        proof_sharp = math.inf
    return stated, proof_sharp


def sequence_separation(domain: Domain, points) -> float:
    """Max pair separation over consecutive points of a sequence."""
    _, links = _links(domain, points)
    if not links:
        raise ValueError("sequence needs at least 2 points")
    return max(links)


@dataclass(frozen=True)
class SeparationResult:
    """Upper estimate of the set separation with per-target witnesses."""

    value: float
    per_target: dict  # target index -> (value, polyline (hops+1, d))
    hops: int
    grid_step: float


_NO_EDGES = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))


def _grid_edges(lattice: Lattice):
    """The grid-grid edges (src, dst, cost) of set_separation, in both
    directions, between lattice nodes at most 4 steps apart."""
    ii, jj, dist = lattice.pairs(16)
    cost = dist / (lattice.clear[ii] + lattice.clear[jj])
    # the float test decides the pairs exactly 4 steps apart
    keep = (dist <= 4.0 * lattice.step) & (cost < 1.0)
    ii, jj, cost = ii[keep], jj[keep], cost[keep]
    return np.concatenate([ii, jj]), np.concatenate([jj, ii]), np.concatenate([cost, cost])


def set_separation(lattice: Lattice, start, targets, hops: int) -> SeparationResult:
    """Upper estimate of the sup-inf set separation from start to targets
    with at most `hops` links, by a hop-limited minimax solve on the grid
    nodes of the lattice.

    Edge cost is the pair separation |p_i - p_j| / (c_i + c_j), and edges
    with cost >= 1 are dropped.  The edges are
      - grid-grid pairs at most 4 * lattice.step apart;
      - the start and each target to every grid node;
      - all pairs among the start and the targets;
      - a zero-cost self-edge per node, which makes the exactly-l and
        at-most-l formulations coincide.
    Memory is O(N k + m N) for N grid nodes, k lattice offsets within 4
    steps and m targets.  Each hop relaxes every edge, and a node's
    predecessor is the lowest-indexed one that attains its minimum.

    The grid-grid edges are built for hops >= 3 only.  That is exact: at
    hop 1 only the start has a finite value, so a grid node's finite value
    and its predecessor come from its edge from the start, and at hop 2
    only the values of the targets are read, whose in-edges come from grid
    nodes, the start and the targets.  Values, the tie rule and the witness
    polylines are those of the full edge list.

    The inf over intermediate points is restricted to grid nodes, so the
    result over-estimates the true separation and stays usable as q in the
    set bound.  Unreachable targets get value +inf and no polyline.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    nodes, clear, domain = lattice.nodes, lattice.clear, lattice.domain
    if points_array(start, domain).shape[0] != 1:
        raise ValueError("start must be one point")
    extra, c_extra = interior_clearances(domain, start, targets)
    n_grid = nodes.shape[0]
    pts = np.vstack([nodes, extra])
    n = pts.shape[0]

    # start/targets to every point, as an (m+1, N+m+1) array
    diff = np.linalg.norm(extra[:, None, :] - pts[None, :, :], axis=2)
    cost = diff / (c_extra[:, None] + np.concatenate([clear, c_extra])[None, :])
    np.fill_diagonal(cost[:, n_grid:], np.inf)  # self-edges come below
    a, b = np.nonzero(cost < 1.0)
    link = cost[a, b]
    a += n_grid
    g = b < n_grid  # the edges back from grid nodes, which have no row
    ids = np.arange(n)
    src_g, dst_g, cost_g = _grid_edges(lattice) if hops >= 3 else _NO_EDGES
    src = np.concatenate([src_g, a, b[g], ids])
    dst = np.concatenate([dst_g, b, a[g], ids])
    cost = np.concatenate([cost_g, link, link[g], np.zeros(n)])

    order = np.argsort(dst * n + src)
    src, dst, cost = src[order], dst[order], cost[order]
    first = np.searchsorted(dst, ids)  # every node has its self-edge
    edge = np.arange(src.size)
    f = np.full(n, np.inf)
    f[n_grid] = 0.0
    preds = []
    for _ in range(hops):
        val = np.maximum(f[src], cost)
        f = np.minimum.reduceat(val, first)
        # sorted by (dst, src): the first edge attaining the minimum
        # has the lowest predecessor index
        hit = np.minimum.reduceat(np.where(val == f[dst], edge, src.size), first)
        preds.append(src[hit])
    per_target = {}
    for t in range(extra.shape[0] - 1):
        idx = n_grid + 1 + t
        val = float(f[idx])
        path = [idx]
        if math.isfinite(val):
            for k in range(hops - 1, -1, -1):
                path.append(int(preds[k][path[-1]]))
            path.reverse()
            poly = pts[np.array(path)]
        else:
            poly = None
        per_target[t] = (val, poly)
    value = max(v for v, _ in per_target.values())
    return SeparationResult(value, per_target, hops, lattice.step)


def set_harnack_bound(q: float, hops: int, dim: int) -> float:
    """2^(2dl) / (1 - q)^((d-1)l) with q the (over-estimated) set separation;
    +inf where the value is beyond the float range."""
    if not q < 1.0:
        raise ValueError("separation condition violated: sep >= 1")
    if q < 0 or hops < 1 or dim < 2:
        raise ValueError("need q >= 0, hops >= 1, dim >= 2")
    try:
        return 2.0 ** (2 * dim * hops) / (1.0 - q) ** ((dim - 1) * hops)
    except (OverflowError, ZeroDivisionError):  # 2^(2dl) overflows or (1-q)^.. is 0
        return math.inf


def chain_bound(domain: Domain, points) -> tuple[float, float]:
    """Products (stated, proof_sharp) of the pair bounds along a chain: upper
    bounds on the Harnack distance between the first and last point
    (multiplicative triangle)."""
    _, links = _links(domain, points)
    if not links:
        raise ValueError("chain needs at least 2 points")
    stated = proof_sharp = 1.0
    for k, q in enumerate(links):
        if not q < 1.0:
            raise ValueError(f"chain link {k} has separation {q} >= 1")
        link_stated, link_sharp = pair_bound_from_q(q, domain.dim)
        stated, proof_sharp = stated * link_stated, proof_sharp * link_sharp
    return stated, proof_sharp


def verify_between_conditions(
    domain: Domain, polyline, q: float, resolution: float | None = None
) -> tuple[bool, dict]:
    """Check the two-parameter chain conditions for a polyline at level q.

    Each link's separation |x_k - x_{k+1}| / (r_k + r_{k+1}), with r_k the
    clearance at x_k, must be at most q + 1e-15 (a tolerance on q, the same
    at any scale of the domain); each segment must also certify inside the
    domain (the clearance balls are inside by definition of clearance).
    Returns (passed, report) with the first violated link, if any.
    """
    p, links = _links(domain, polyline)
    if resolution is None:
        resolution = 1e-3 * domain.bounding_diameter()
    cert = certified_segment_clearances(domain, p[:-1], p[1:], resolution)
    report = {"links": p.shape[0] - 1, "first_violation": None, "reason": None}
    for k, link in enumerate(links):
        if link > q + 1e-15:
            report["first_violation"] = k
            report["reason"] = "link separation exceeds q"
            return False, report
        if cert[k] <= 0.0:
            report["first_violation"] = k
            report["reason"] = "segment not certified inside the domain"
            return False, report
    return True, report
