"""Domain shapes, clearance queries and conservative hull certificates.

Domains are bounded open connected subsets of R^d given by one of four
shape primitives (ball, axis-aligned box, simple 2-D polygon, connected
union of balls).  Every shape answers a vectorized distance-to-complement
("clearance") query, which is exact except inside ball-union overlaps,
where it is a valid lower bound.  All certified quantities in this
package rest on the 1-Lipschitz property of the clearance function.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Ball",
    "Box",
    "Polygon2D",
    "UnionOfBalls",
    "diameter",
    "hull_clearance",
    "interior_clearances",
    "load_domain",
    "load_point_set",
    "Lattice",
    "certified_segment_clearances",
]


def _as_points(x) -> np.ndarray:
    """Coerce to a float array of shape (n, d); a single point becomes (1, d)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2:
        raise ValueError(f"expected point array, got shape {np.asarray(x).shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("points must have finite coordinates")
    return a


def _check_dim(domain, x: np.ndarray) -> None:
    if x.shape[-1] != domain.dim:
        raise ValueError(
            f"dimension mismatch: point has d={x.shape[-1]}, domain has d={domain.dim}"
        )


def _columns(domain, pts) -> np.ndarray:
    """Points as a C-ordered (d, n) array: broadcasts over its rows of length
    n run 2-4x faster than over the rows of length d of an (n, d) array, and
    a sum over axis 0 adds the coordinates in the same order as one over
    axis 1, so the clearances are the same floats."""
    p = _as_points(pts)
    _check_dim(domain, p)
    return np.ascontiguousarray(p.T)


class Domain:
    """Base class for bounded open connected domains."""

    dim: int

    def clearance(self, pts) -> np.ndarray:
        """Distance to the complement for each point; 0 outside or on the boundary."""
        raise NotImplementedError

    def enclosing_radius(self, center) -> float:
        """Smallest R with the whole domain inside Ball(center, R)."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def bounding_diameter(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))


@dataclass(frozen=True, eq=False)
class Ball(Domain):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", c)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("ball center must be a vector with d >= 2")
        if not np.all(np.isfinite(c)):
            raise ValueError("ball center must be finite")
        if not math.isfinite(self.radius):
            raise ValueError("ball radius must be finite")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def clearance(self, pts) -> np.ndarray:
        q = _columns(self, pts) - self.center[:, None]
        return np.maximum(0.0, self.radius - np.sqrt((q * q).sum(axis=0)))

    def enclosing_radius(self, center) -> float:
        c = np.asarray(center, dtype=float)
        return float(np.linalg.norm(c - self.center) + self.radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True, eq=False)
class Box(Domain):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.ndim != 1 or lo.size < 2 or lo.shape != hi.shape:
            raise ValueError("box corners must be matching vectors with d >= 2")
        if not np.all(np.isfinite(lo)):
            raise ValueError("box min must be finite")
        if not np.all(np.isfinite(hi)):
            raise ValueError("box max must be finite")
        if not np.all(hi > lo):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return self.lo.size

    def clearance(self, pts) -> np.ndarray:
        q = _columns(self, pts)
        face = np.minimum(q - self.lo[:, None], self.hi[:, None] - q).min(axis=0)
        return np.maximum(0.0, face)

    def enclosing_radius(self, center) -> float:
        c = np.asarray(center, dtype=float)
        reach = np.maximum(np.abs(self.lo - c), np.abs(self.hi - c))
        return float(np.linalg.norm(reach))

    def bounding_box(self):
        return self.lo, self.hi


def _segments_intersect(a, b, c, d) -> bool:
    """Proper or improper intersection of segments [a,b] and [c,d]."""

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def on_seg(p, q, r):
        return (
            min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(a, b, c):
        return True
    if o2 == 0 and on_seg(a, b, d):
        return True
    if o3 == 0 and on_seg(c, d, a):
        return True
    if o4 == 0 and on_seg(c, d, b):
        return True
    return False


@dataclass(frozen=True, eq=False)
class Polygon2D(Domain):
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices in R^2")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        # signed area > 0 <=> counterclockwise
        x, y = v[:, 0], v[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area2 <= 0:
            raise ValueError("polygon vertices must be counterclockwise")
        n = v.shape[0]
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share an endpoint
                c, d = v[j], v[(j + 1) % n]
                if _segments_intersect(a, b, c, d):
                    raise ValueError("polygon must be simple (non-self-intersecting)")

    @property
    def dim(self) -> int:
        return 2

    def _inside(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Crossing-number test, vectorized over the coordinate rows."""
        v = self.vertices
        n = v.shape[0]
        inside = np.zeros(px.size, dtype=bool)
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            cond = (a[1] > py) != (b[1] > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = a[0] + (py - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            inside ^= cond & (px < xint)
        return inside

    def _edge_distance(self, p: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Distance to the nearest edge.  The projection parameter is a BLAS
        product over the rows of p, whose fused multiply-add a sum over the
        coordinate rows px, py would not round alike."""
        v = self.vertices
        n = v.shape[0]
        best = np.full(px.size, np.inf)
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            ab = b - a
            t = np.clip(((p - a) @ ab) / (ab @ ab), 0.0, 1.0)
            dx = px - (a[0] + t * ab[0])
            dy = py - (a[1] + t * ab[1])
            best = np.minimum(best, np.sqrt(dx * dx + dy * dy))
        return best

    def clearance(self, pts) -> np.ndarray:
        p = _as_points(pts)
        px, py = _columns(self, p)
        return np.where(self._inside(px, py), self._edge_distance(p, px, py), 0.0)

    def enclosing_radius(self, center) -> float:
        c = np.asarray(center, dtype=float)
        return float(np.linalg.norm(self.vertices - c, axis=1).max())

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass(frozen=True, eq=False)
class UnionOfBalls(Domain):
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        if c.ndim != 2 or c.shape[1] < 2 or r.shape != (c.shape[0],):
            raise ValueError("union of balls needs centers (n, d>=2) and n radii")
        if not np.all(np.isfinite(c)):
            raise ValueError("union ball centers must be finite")
        if not np.all(np.isfinite(r)):
            raise ValueError("union ball radii must be finite")
        if not np.all(r > 0):
            raise ValueError("all radii must be positive")
        # pairwise-overlap graph must be connected
        n = c.shape[0]
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and np.linalg.norm(c[i] - c[j]) < r[i] + r[j]:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            raise ValueError("union of balls must be connected (balls must overlap)")

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def clearance(self, pts) -> np.ndarray:
        # max over per-ball interior depth: exact for one ball, a valid lower
        # bound inside overlaps
        q = _columns(self, pts)
        depth = np.full(q.shape[1], -np.inf)
        for c, r in zip(self.centers, self.radii):
            diff = q - c[:, None]
            depth = np.maximum(depth, r - np.sqrt((diff * diff).sum(axis=0)))
        return np.maximum(0.0, depth)

    def enclosing_radius(self, center) -> float:
        c = np.asarray(center, dtype=float)
        return float((np.linalg.norm(self.centers - c, axis=1) + self.radii).max())

    def bounding_box(self):
        lo = (self.centers - self.radii[:, None]).min(axis=0)
        hi = (self.centers + self.radii[:, None]).max(axis=0)
        return lo, hi


def points_array(pts, domain: Domain | None = None) -> np.ndarray:
    """Coordinates as a nonempty finite (n, d) float array, of the domain's
    dimension when a domain is given."""
    if np.size(pts) == 0:  # before the coercion turns [] into a (1, 0) array
        raise ValueError("point set must be nonempty")
    p = _as_points(pts)
    if domain is not None:
        _check_dim(domain, p)
    return p


def interior_clearances(domain: Domain, *parts) -> tuple[np.ndarray, np.ndarray]:
    """The parts (points or point sets, each checked by points_array) stacked
    into one (n, d) array, and their clearances from one clearance call;
    refuses the first point that is not interior to the domain."""
    p = np.vstack([points_array(part, domain) for part in parts])
    clear = domain.clearance(p)
    if not np.all(clear > 0):
        bad = p[int(np.argmin(clear))]
        raise ValueError(f"point {bad.tolist()} is not interior to the domain")
    return p, clear


# ---------------------------------------------------------------------------
# operations


def diameter(pts) -> float:
    """Max pairwise Euclidean distance; 0 for a singleton."""
    p = points_array(pts)
    if p.shape[0] == 1:
        return 0.0
    d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
    return float(d.max())


def _subdivisions(length: float, resolution: float) -> int:
    """Pieces of a segment of positive length: the least power of two
    whose pieces are no longer than resolution."""
    ratio = length / resolution
    if not math.isfinite(ratio):  # say, a subnormal resolution
        raise ValueError(f"segment needs more than {SEGMENT_MAX_SAMPLES} samples")
    return 1 << max(0, math.ceil(math.log2(ratio)))


# most samples of one clearance call: a batch closes once it holds as many,
# so one call takes fewer than twice as many
SEGMENT_BATCH_SAMPLES = 1 << 18
# most samples of one segment: a lattice with a candidate on every axis spans
# at most LATTICE_BUDGET + 2 steps along its box's diagonal, so the h/10
# segments of eac_estimate take at most 2^26 + 1 samples, hull segments 1025
SEGMENT_MAX_SAMPLES = 1 << 28


def certified_segment_clearances(domain: Domain, a, b, resolution) -> np.ndarray:
    """Certified lower bounds on the least clearance along each segment
    [a[k], b[k]] of two (k, d) point arrays; an empty array for k = 0.

    resolution is a positive finite scalar or one such value per segment.
    A segment of length L is cut into the least power of two n of pieces no
    longer than its resolution, so that halving the resolution nests the
    samples and the certificates are monotone; its certificate is the least
    clearance at the n + 1 ends of the pieces minus L / (2n) (the clearance
    is 1-Lipschitz), and no less than 0.  A zero-length segment gets the
    clearance of its point.  Samples are made in runs of at most
    SEGMENT_BATCH_SAMPLES, batched into one clearance call until a batch
    holds as many, so memory stays bounded however long a segment; one of
    more than SEGMENT_MAX_SAMPLES samples is refused before any call.
    """
    res = np.asarray(resolution, dtype=float)
    if not np.all(np.isfinite(res) & (res > 0)):
        raise ValueError("resolution must be positive and finite")
    a = np.asarray(a, dtype=float)
    diff = np.asarray(b, dtype=float) - a
    runs, spacing, first, per_call = [], [], [], SEGMENT_BATCH_SAMPLES
    for p, v, r in zip(a, diff, np.full(len(a), res).tolist()):
        # sqrt(v . v) rounds as the norm of one vector, np.linalg.norm(v);
        # the row-wise norm of a matrix rounds differently in the last bit
        length = math.sqrt(v.dot(v))
        n = _subdivisions(length, r) if length > 0.0 else 1  # 0-length: spacing 0
        if n + 1 > SEGMENT_MAX_SAMPLES:
            raise ValueError(f"segment needs {n + 1} samples, more than {SEGMENT_MAX_SAMPLES}")
        spacing.append(length / n)
        first.append(len(runs))
        runs += [(p, v / n, lo, min(lo + per_call, n + 1)) for lo in range(0, n + 1, per_call)]
    low, batch, starts, size = [np.zeros(0)], [], [], 0  # k = 0: no batch
    for k, (p, step, lo, hi) in enumerate(runs):
        # i * (v / n) rounds as linspace's (i / n) * v: both quotients are
        # exact, n being a power of two.  Coordinates run along rows here,
        # which is faster than broadcasting over rows of length d.
        batch.append(p[:, None] + step[:, None] * np.arange(lo, hi, dtype=float))
        starts.append(size)
        size += hi - lo
        if size >= per_call or k == len(runs) - 1:
            # in C order, the layout of one segment's (n + 1, d) samples, so
            # that each shape's clearance arithmetic (BLAS products included)
            # rounds as it does on them alone
            samples = np.concatenate(batch, axis=1).T.copy()
            low.append(np.minimum.reduceat(domain.clearance(samples), starts))
            batch, starts, size = [], [], 0
    # a segment's least sample is the least over its runs
    least = np.minimum.reduceat(np.concatenate(low), first)
    return np.maximum(0.0, least - np.array(spacing) / 2.0)


def hull_clearance(domain: Domain, pts, resolution: float | None = None) -> float:
    """Certified lower bound on dist(H, complement of D) for the segmental hull
    H of the points: the union of the segments between every two of them.

    Every segment is sampled at spacing <= resolution (by default a
    thousandth of the domain's bounding diameter) and certified by the
    1-Lipschitz clearance rule; 0 means "hull not certified inside D".  Each
    pair of points is joined by its own segment, no longer than diam(S), so
    diam(S) over this bound bounds the entropy of linear connectivity.
    """
    p = points_array(pts, domain)
    if resolution is None:
        resolution = 1e-3 * domain.bounding_diameter()
    # Each point starts a segment, whose certificate is at most the clearance
    # at its first sample, the point: so the minimum also bounds the points.
    n = p.shape[0]
    i, j = np.array([*itertools.combinations(range(n), 2), (n - 1, n - 1)]).T
    return float(certified_segment_clearances(domain, p[i], p[j], resolution).min())


LATTICE_BUDGET = 1 << 22
"""Most lattice candidates (grid points in the bounding box) one lattice may
have.  At this size a `Lattice` build peaks at 288 MB of allocations
(`tracemalloc`) on the unit disk, 399 MB on the 3-D unit ball and 448 MB on
an L-shaped hexagon, and an unpadded `Lattice.pairs` table over the box
takes 32 MB.  The budget bounds the lattice only; the solves that run on it
cost more per node."""


class LatticeBudgetError(ValueError):
    """A lattice would have more candidates than `LATTICE_BUDGET`."""


def lattice_candidates(domain: Domain, step: float) -> float:
    """Number of grid points at integer multiples of step in the domain's
    bounding box, prod(floor(hi/step) - ceil(lo/step) + 1), counted without
    building them; inf where a quotient leaves the float range."""
    lo, hi = domain.bounding_box()
    count = 1
    for l, h in zip(lo.tolist(), hi.tolist()):
        a, b = l / step, h / step
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        count *= max(0, math.floor(b) - math.ceil(a) + 1)
    return count


class GridDimensionError(ValueError):
    """Raised when a `Lattice` is asked for a dimension it refuses (d > 3)."""


@dataclass(frozen=True, eq=False)
class Lattice:
    """The grid nodes at integer multiples of step strictly interior to the
    domain, with the clearances that selected them: one clearance call over
    the candidates, so that no grid solver evaluates the nodes again.

    Refuses a step that is not positive and finite, a domain of dimension
    d > 3 (`GridDimensionError`), and, before allocating, a bounding box of
    more than `LATTICE_BUDGET` candidates (`LatticeBudgetError`)."""

    domain: Domain
    step: float
    nodes: np.ndarray = field(init=False, repr=False)
    clear: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        domain, step = self.domain, self.step
        if not (step > 0 and math.isfinite(step)):
            raise ValueError(f"grid step must be positive and finite, got {step}")
        if domain.dim > 3:
            raise GridDimensionError(
                f"grid lattice refuses d={domain.dim} > 3; use hull bounds instead"
            )
        count = lattice_candidates(domain, step)
        if not count <= LATTICE_BUDGET:
            raise LatticeBudgetError(
                f"grid step {step:g} gives {count:.3g} lattice candidates, "
                f"more than the budget of {LATTICE_BUDGET}"
            )
        lo, hi = domain.bounding_box()
        axes = [
            np.arange(math.ceil(l / step), math.floor(h / step) + 1) * step
            for l, h in zip(lo, hi)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.column_stack([m.ravel() for m in mesh])
        if grid.shape[0] == 0:
            nodes, clear = grid.reshape(0, domain.dim), np.zeros(0)
        else:
            clear = domain.clearance(grid)
            inside = clear > 0.0
            nodes, clear = grid[inside], clear[inside]
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "clear", clear)

    def pairs(self, reach2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node pairs (i, j, dist) with node j = node i + step * o for an
        integer offset o that is lexicographically positive with |o|^2 <=
        reach2, ordered by offset, then by i; dist is |node i - node j|.

        One table lookup, with no loop over the offsets: the nodes' integer
        keys index a table over their bounding box, padded on each side by
        the longest offset, that holds each node's index and -1 elsewhere.
        With the table's C-order strides s, node i sits at flat index f_i
        and offset o moves it by o . s, so table[o . s + f_i] is j, or -1 if
        no node is there.  An offset longer than the box on some axis meets
        no node and is never made, so the padding never exceeds the box.
        """
        keys = np.rint(self.nodes / self.step).astype(np.int64)
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        lo = keys.min(axis=0)
        ext = keys.max(axis=0) - lo + 1
        pad = np.minimum(ext - 1, math.isqrt(reach2))
        axes = np.meshgrid(*[np.arange(-b, b + 1) for b in pad], indexing="ij")
        box = np.stack(axes, axis=-1).reshape(-1, keys.shape[1])
        # C-order is lexicographic and the box is symmetric, so 0 sits mid-way
        offsets = box[box.shape[0] // 2 + 1 :]
        offsets = offsets[(offsets**2).sum(axis=1) <= reach2]
        shape = ext + 2 * pad
        strides = np.cumprod(np.append(shape[1:], 1)[::-1])[::-1]
        flat = (keys - lo + pad) @ strides
        table = np.full(int(np.prod(shape)), -1, dtype=np.intp)
        table[flat] = np.arange(keys.shape[0])
        j = table[(offsets @ strides)[:, None] + flat[None, :]]
        hit = j >= 0
        i, j = np.nonzero(hit)[1], j[hit]
        return i, j, np.linalg.norm(self.nodes[i] - self.nodes[j], axis=1)


# ---------------------------------------------------------------------------
# file formats


def domain_from_dict(data: dict) -> Domain:
    dim = int(data["dim"])
    if dim < 2:
        raise ValueError("domain dimension must be >= 2")
    shape = data["shape"]
    kind = shape["type"]
    if kind == "ball":
        dom = Ball(np.asarray(shape["center"], dtype=float), float(shape["radius"]))
    elif kind == "box":
        dom = Box(np.asarray(shape["min"], dtype=float), np.asarray(shape["max"], dtype=float))
    elif kind == "polygon":
        if dim != 2:
            raise ValueError("polygon domains require dim = 2")
        dom = Polygon2D(np.asarray(shape["vertices"], dtype=float))
    elif kind == "union_of_balls":
        balls = shape["balls"]
        dom = UnionOfBalls(
            np.asarray([b["center"] for b in balls], dtype=float),
            np.asarray([b["radius"] for b in balls], dtype=float),
        )
    else:
        raise ValueError(f"unknown shape type: {kind!r}")
    if dom.dim != dim:
        raise ValueError(f"declared dim {dim} does not match shape dim {dom.dim}")
    return dom


def _load(path, kind: str, parse):
    """parse(JSON at path); a wrong structure (say, a null number) is a ValueError."""
    with open(path) as f:
        data = json.load(f)
    try:
        return parse(data)
    except (TypeError, KeyError, IndexError, OverflowError, AttributeError) as e:
        raise ValueError(f"malformed {kind} file {path}: {type(e).__name__}: {e}") from None


def load_domain(path) -> Domain:
    return _load(path, "domain", domain_from_dict)


def load_point_set(path, domain: Domain) -> np.ndarray:
    """The points of a point-set file as an (n, d) array: nonempty, of the
    domain's dimension, finite and interior to the domain."""

    return _load(path, "point-set", lambda data: interior_clearances(domain, data["points"])[0])
