import math

import numpy as np
import pytest
import scipy.sparse as sp

from harnack import entropy
from harnack.entropy import (
    PairRecord,
    _grid_graph,
    build_ball_chain,
    default_clearance_levels,
    eac_estimate,
    eac_harnack_bound,
    eac_hull_bound,
)
from harnack.geometry import (
    Ball,
    Box,
    GridDimensionError,
    Polygon2D,
    UnionOfBalls,
    Lattice,
    lattice_candidates,
)
from segment_oracle import certified_segment_clearance

UNIT_DISK = Ball(np.zeros(2), 1.0)
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
PAIR = np.array([[-0.5, 0.0], [0.5, 0.0]])


class TestHullBound:
    def test_segmental_box(self):
        v = eac_hull_bound(UNIT_BOX, PAIR, 1e-3)
        assert 2.0 <= v <= 2.0 / (1 - 1e-3)

    def test_singleton_is_zero(self):
        assert eac_hull_bound(UNIT_DISK, [(0.3, 0.1)]) == 0.0

    def test_uncertified_hull_gives_infinity(self):
        from harnack.geometry import UnionOfBalls

        u = UnionOfBalls(
            np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0], [2.0, 0.0]]),
            np.full(4, 1.1),
        )
        assert eac_hull_bound(u, [(0.0, 0.0), (2.0, 2.0)], 1e-2) == math.inf


class TestEstimator:
    def test_disk_pair_value(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.05), PAIR)
        assert 2.0 <= est.value <= 2.1

    def test_box_pair_value(self):
        est = eac_estimate(Lattice(UNIT_BOX, 0.05), PAIR)
        assert 2.0 <= est.value <= 2.1

    def test_singleton(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.1), [(0.2, 0.2)])
        assert est.value == 0.0
        assert est.per_pair == {}

    def test_set_monotone_same_grid(self):
        levels = np.geomspace(0.05, 0.5, 12)
        small = eac_estimate(Lattice(UNIT_BOX, 0.1), PAIR, levels)
        big = eac_estimate(Lattice(UNIT_BOX, 0.1), np.vstack([PAIR, [[0.0, 0.6]]]), levels)
        assert small.value <= big.value

    def test_domain_antimonotone_within_tolerance(self):
        # exact for true entropies; the discretized estimator may deviate
        # by grid slack, hence the documented 10% tolerance
        levels = np.geomspace(0.05, 0.5, 12)
        inner = eac_estimate(Lattice(UNIT_DISK, 0.05), PAIR, levels)
        outer = eac_estimate(Lattice(Ball(np.zeros(2), 2.0), 0.05), PAIR, None)
        assert inner.value >= outer.value * (1 - 0.10)

    def test_hull_domination(self):
        est = eac_estimate(Lattice(UNIT_BOX, 0.05), PAIR)
        hull = eac_hull_bound(UNIT_BOX, PAIR, 0.005)
        assert est.value <= hull + 0.05

    def test_polyline_feasibility(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.05), np.array([[-0.5, 0.2], [0.4, -0.3]]))
        for rec in est.per_pair.values():
            poly = rec.polyline
            for a, b in zip(poly[:-1], poly[1:]):
                n = max(2, int(np.linalg.norm(b - a) / (0.05 / 10)) + 1)
                t = np.linspace(0, 1, n)
                samples = a + t[:, None] * (b - a)
                assert np.all(UNIT_DISK.clearance(samples) >= rec.clearance - 1e-9)

    def test_refuses_high_dimension(self):
        cube4 = Box(-np.ones(4), np.ones(4))
        with pytest.raises(GridDimensionError):
            eac_estimate(Lattice(cube4, 0.25), [(0, 0, 0, 0), (0.5, 0, 0, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eac_estimate(Lattice(UNIT_DISK, 0.1), np.zeros((0, 2)))


class TestBallChain:
    def test_degenerate_pair(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.1), PAIR)
        x = np.array([-0.5, 0.0])
        chain = build_ball_chain(UNIT_DISK, x, x, 1.0, est)
        assert chain.hops == 0
        assert np.array_equal(chain.centers, np.vstack([x, x]))

    def test_disk_diameter_chain(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.02), PAIR)
        chain = build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], 2.05, est)
        gaps = np.linalg.norm(np.diff(chain.centers, axis=0), axis=1)
        assert np.all(gaps <= chain.radius / 2 + 1e-12)  # (B1)
        assert chain.hops <= 2 * 2.05  # (B2)
        assert chain.hops <= 4
        assert np.all(UNIT_DISK.clearance(chain.centers) >= chain.radius - 1e-12)

    def test_huge_budget_same_chain(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.02), PAIR)
        c1 = build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], 2.05, est)
        c2 = build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], 100.0, est)
        assert np.array_equal(c1.centers, c2.centers)
        assert c2.hops <= 200

    def test_endpoints_are_the_pair(self):
        est = eac_estimate(Lattice(UNIT_BOX, 0.05), PAIR)
        chain = build_ball_chain(UNIT_BOX, PAIR[0], PAIR[1], 3.0, est)
        assert np.array_equal(chain.centers[0], PAIR[0])
        assert np.array_equal(chain.centers[-1], PAIR[1])

    def test_budget_must_exceed_estimate(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.05), PAIR)
        with pytest.raises(ValueError, match="strictly exceed"):
            build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], est.value, est)

    def test_missing_pair_rejected(self):
        est = eac_estimate(Lattice(UNIT_DISK, 0.1), PAIR)
        with pytest.raises(KeyError):
            build_ball_chain(UNIT_DISK, np.array([0.1, 0.1]), PAIR[1], 5.0, est)


class TestHarnackBound:
    @pytest.mark.parametrize(
        "eac,dim,sharp,rounded",
        [
            (0, 2, 3.0, 16.0),
            (2, 2, 243.0, 4096.0),
            (1, 3, 216.0, 4096.0),
        ],
    )
    def test_hand_values(self, eac, dim, sharp, rounded):
        got = eac_harnack_bound(eac, dim)
        assert got[0] == pytest.approx(sharp, rel=1e-12)
        assert got[1] == pytest.approx(rounded, rel=1e-12)

    def test_sharp_below_rounded_on_grid(self):
        for d in range(2, 8):
            for eac in np.linspace(0, 10, 101):
                sharp, rounded = eac_harnack_bound(float(eac), d)
                assert sharp <= rounded

    def test_infinite_entropy_rejected(self):
        with pytest.raises(ValueError, match="compactly contained"):
            eac_harnack_bound(math.inf, 2)

    def test_overflow_gives_infinity(self):
        sharp, rounded = eac_harnack_bound(300.0, 2)  # 2^1204 overflows, 3^601 does not
        assert math.isfinite(sharp) and rounded == math.inf
        assert eac_harnack_bound(1e6, 3) == (math.inf, math.inf)


def _dict_loop_graph(domain, grid_step):
    """The former per-node dictionary walk over the half neighborhood."""
    nodes = Lattice(domain, grid_step).nodes
    clear = domain.clearance(nodes)
    d = domain.dim
    keys = np.rint(nodes / grid_step).astype(int)
    key_to_idx = {tuple(k): i for i, k in enumerate(keys)}
    ii, jj = [], []
    for off in np.ndindex(*(3,) * d):
        o = np.array(off) - 1
        if tuple(o) > (0,) * d:
            for i in range(nodes.shape[0]):
                j = key_to_idx.get(tuple(keys[i] + o))
                if j is not None:
                    ii.append(i)
                    jj.append(j)
    ii = np.array(ii, dtype=int)
    jj = np.array(jj, dtype=int)
    lengths = np.linalg.norm(nodes[ii] - nodes[jj], axis=1)
    cm = domain.clearance(0.5 * (nodes[ii] + nodes[jj]))
    cert = np.minimum(np.minimum(clear[ii], clear[jj]), cm) - lengths / 4.0
    return ii, jj, lengths, cert


GRAPH_DOMAINS = [
    (Ball(np.zeros(2), 1.0), 0.1),
    (UNIT_BOX, 0.15),
    (Polygon2D(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)), 0.1),
    (UnionOfBalls(np.array([[-0.8, 0.0], [0.0, 0.2], [0.8, 0.0]]), np.full(3, 0.5)), 0.07),
    (Ball(np.array([0.1, 0.0, -0.2]), 1.0), 0.2),
    (Box(-np.ones(3), np.array([1.0, 0.5, 1.0])), 0.25),
    (UnionOfBalls(np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]), np.full(2, 0.6)), 0.15),
]


@pytest.mark.parametrize(
    "domain,step", GRAPH_DOMAINS, ids=["disk", "box", "L", "union3", "ball3d", "box3d", "union3d"]
)
def test_grid_graph_matches_dict_loop(domain, step):
    ii, jj, lengths, cert = _grid_graph(Lattice(domain, step))
    want = _dict_loop_graph(domain, step)
    assert ii.size > 0
    for got, ref in zip((ii, jj, lengths, cert), want):
        assert np.array_equal(got, ref)


def test_grid_graph_evaluates_lattice_clearances_once(monkeypatch):
    domain = GRAPH_DOMAINS[2][0]  # the L-polygon
    sizes = []
    clearance = Polygon2D.clearance

    def recording(self, pts):
        sizes.append(len(np.atleast_2d(pts)))
        return clearance(self, pts)

    monkeypatch.setattr(Polygon2D, "clearance", recording)
    lattice = Lattice(domain, 0.1)
    ii, _, _, _ = _grid_graph(lattice)
    # the lattice candidates once, then the edge midpoints
    assert sizes == [lattice_candidates(domain, 0.1), ii.size]
    monkeypatch.setattr(Polygon2D, "clearance", clearance)
    assert np.array_equal(lattice.clear, domain.clearance(lattice.nodes))


# --- the per-pair estimator: one graph and one Dijkstra call per pair and level


def per_pair_estimate(domain, p, grid_step, levels, relay=True):
    """Reference estimator: every pair and level gets its own graph, which
    holds the lattice and every set point, or with relay=False the lattice
    and that pair alone (the former estimator, which kept every curve off
    the third set points).  Each point edge is certified on its own."""
    lattice = Lattice(domain, grid_step)
    n, m = lattice.nodes.shape[0], p.shape[0]
    nodes = np.vstack([lattice.nodes, p])  # set point k is node n + k
    node_top = np.concatenate([lattice.clear - grid_step / 2.0, np.full(m, np.inf)])
    ii, jj, lengths, cert = _grid_graph(lattice)
    grid_top = np.minimum(cert, np.minimum(node_top[ii], node_top[jj]))
    reach = grid_step * math.sqrt(domain.dim) + 1e-12
    point_edges = []  # (n + k, v, length, level cap) from set point k to a node v
    for k in range(m):
        dist = np.linalg.norm(nodes - p[k], axis=1)
        for v in np.flatnonzero(dist <= reach):
            if v < n or v > n + k:
                cap = certified_segment_clearance(domain, p[k], nodes[v], grid_step / 2.0)
                point_edges.append((n + k, v, dist[v], min(cap, node_top[v])))
    ps, pd, pw, pt = map(np.array, zip(*point_edges))
    per_pair = {}
    for a in range(m):
        for b in range(a + 1, m):
            x, y = p[a], p[b]
            # without relays, the other set points get no edges
            ends = (n + a, n + b)
            own = relay | (np.isin(ps, ends) & ((pd < n) | np.isin(pd, ends)))
            rows, cols = np.concatenate([ii, ps[own]]), np.concatenate([jj, pd[own]])
            data, top = np.concatenate([lengths, pw[own]]), np.concatenate([grid_top, pt[own]])
            seg_clear = certified_segment_clearance(domain, x, y, grid_step / 10.0)
            if seg_clear > 0:
                best = PairRecord(float(np.linalg.norm(x - y)) / seg_clear, seg_clear, p[[a, b]])
            else:
                best = PairRecord(math.inf, 0.0, p[[a, b]])
            for r in map(float, levels):
                keep = top >= r
                g = sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n + m, n + m))
                dist, pred = entropy.dijkstra(
                    g, directed=False, indices=n + a, return_predecessors=True
                )
                if dist[n + b] / r < best.ratio:
                    path = [n + b]
                    while path[-1] != n + a:
                        path.append(pred[path[-1]])
                    best = PairRecord(float(dist[n + b]) / r, r, nodes[path[::-1]])
            per_pair[(a, b)] = best
    return per_pair


L_POLYGON = Polygon2D(np.array([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]], float))
UNION3 = UnionOfBalls(np.array([[-0.8, 0.0], [0.0, 0.2], [0.8, 0.0]]), np.full(3, 0.5))
BALL3 = Ball(np.zeros(3), 1.0)
BOX3 = Box(-np.ones(3), np.array([1.0, 0.5, 1.0]))
# 8 points of UNION3 at clearance 0.02-0.06, all closer to the boundary than 1.25 grid steps of 0.05
NEAR_BOUNDARY = np.array(
    [[-0.603, -0.415], [-0.083, 0.658], [1.035, -0.405], [-0.334, 0.501],
     [-1.19, -0.21], [1.217, 0.178], [-0.934, 0.436], [0.867, -0.475]]
)


def seeded_points(domain, m, floor, seed):
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    pts = np.round(rng.uniform(lo, hi, size=(100 * m, domain.dim)), 6)
    return pts[domain.clearance(pts) >= floor][:m]


def former_levels(domain, p, grid_step):
    """The sweep from the grid step up, which left NEAR_BOUNDARY without witnesses."""
    return np.geomspace(grid_step, domain.clearance(p).max(), 24)


ORACLE_CASES = {
    # name: (domain, points, grid step, explicit levels or None)
    "disk-pair-on-lattice": (UNIT_DISK, PAIR, 0.05, None),
    "disk-direct-edge": (UNIT_DISK, np.array([[0.1, 0.12], [0.13, 0.1], [-0.4, 0.3]]), 0.05, None),
    "L-8": (L_POLYGON, seeded_points(L_POLYGON, 8, 0.05, 1), 0.1, None),
    "L-3-explicit": (
        L_POLYGON, seeded_points(L_POLYGON, 3, 0.1, 2), 0.05, np.geomspace(0.02, 0.4, 9)
    ),
    "union-3-high-levels": (
        UNION3, np.array([[-0.9, 0.1], [0.0, 0.3], [0.85, -0.1]]), 0.05, np.geomspace(0.03, 0.9, 12)
    ),
    "union-8": (UNION3, seeded_points(UNION3, 8, 0.1, 3), 0.05, None),
    "union-near-boundary-former-levels": (
        UNION3, NEAR_BOUNDARY, 0.05, former_levels(UNION3, NEAR_BOUNDARY, 0.05)
    ),
    "ball3d-3": (BALL3, seeded_points(BALL3, 3, 0.1, 4), 0.2, None),
    "box3d-8": (BOX3, seeded_points(BOX3, 8, 0.1, 5), 0.25, np.geomspace(0.05, 0.5, 6)),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_batched_estimator_matches_per_pair_graphs(name):
    domain, p, grid_step, levels = ORACLE_CASES[name]
    est = eac_estimate(Lattice(domain, grid_step), p, levels)
    want = per_pair_estimate(domain, p, grid_step, est.clearance_levels)
    former = per_pair_estimate(domain, p, grid_step, est.clearance_levels, relay=False)
    assert est.per_pair.keys() == want.keys() == former.keys()
    for key, rec in est.per_pair.items():
        ref = want[key]
        assert rec.ratio == pytest.approx(ref.ratio, rel=1e-12, abs=0)
        assert rec.clearance == ref.clearance
        # a curve through a third set point only ever adds to the choice
        assert rec.ratio <= former[key].ratio * (1 + 1e-12)
        if math.isfinite(rec.ratio):
            build_ball_chain(domain, p[key[0]], p[key[1]], rec.ratio * (1 + 1e-9), est)
    relayed = [k for k, rec in est.per_pair.items() if rec.ratio < former[k].ratio * (1 - 1e-12)]
    assert bool(relayed) == (name == "union-8")


def test_oracle_cases_reach_the_special_paths():
    # an edge between two set points, a level without any path, and a pair without witness
    _, p, h, _ = ORACLE_CASES["disk-direct-edge"]
    assert np.linalg.norm(p[0] - p[1]) <= h * math.sqrt(2)
    domain, p, h, levels = ORACLE_CASES["union-3-high-levels"]
    assert levels[-1] > domain.clearance(Lattice(domain, h).nodes).max()
    domain, p, h, levels = ORACLE_CASES["union-near-boundary-former-levels"]
    assert not math.isfinite(eac_estimate(Lattice(domain, h), p, levels).value)


def test_near_boundary_set_gets_witnesses():
    est = eac_estimate(Lattice(UNION3, 0.05), NEAR_BOUNDARY)
    assert est.clearance_levels[0] == pytest.approx(UNION3.clearance(NEAR_BOUNDARY).min() / 2)
    assert math.isfinite(est.value)
    for (i, j), rec in est.per_pair.items():
        build_ball_chain(UNION3, NEAR_BOUNDARY[i], NEAR_BOUNDARY[j], rec.ratio * (1 + 1e-9), est)


def test_levels_unchanged_when_points_are_two_steps_inside():
    p = seeded_points(L_POLYGON, 12, 0.1, 6)
    levels = default_clearance_levels(L_POLYGON.clearance(p), 0.05)
    assert np.array_equal(levels, former_levels(L_POLYGON, p, 0.05))


def test_dijkstra_once_per_level_and_clearance_calls_independent_of_set_size(monkeypatch):
    calls = {"dijkstra": 0, "clearance": 0}
    dijkstra, clearance = entropy.dijkstra, Polygon2D.clearance

    def counting_dijkstra(*args, **kwargs):
        calls["dijkstra"] += 1
        return dijkstra(*args, **kwargs)

    sizes = []

    def counting_clearance(self, pts):
        calls["clearance"] += 1
        sizes.append(len(pts))
        return clearance(self, pts)

    points = seeded_points(L_POLYGON, 12, 0.1, 7)
    monkeypatch.setattr(entropy, "dijkstra", counting_dijkstra)
    monkeypatch.setattr(Polygon2D, "clearance", counting_clearance)
    clearance_calls = []
    for m in (3, 12):
        calls.update(dijkstra=0, clearance=0)
        sizes.clear()
        est = eac_estimate(Lattice(L_POLYGON, 0.05), points[:m])
        assert calls["dijkstra"] == len(est.clearance_levels)
        assert sizes.count(m) == 1  # the point clearances serve the levels too
        clearance_calls.append(calls["clearance"])
    assert clearance_calls[0] == clearance_calls[1]
