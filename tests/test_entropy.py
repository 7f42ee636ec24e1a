import math

import numpy as np
import pytest

from harnack.entropy import (
    GridDimensionError,
    _grid_graph,
    build_ball_chain,
    eac_estimate,
    eac_harnack_bound,
    eac_hull_bound,
)
from harnack.geometry import Ball, Box, Polygon2D, UnionOfBalls, lattice_points

UNIT_DISK = Ball(np.zeros(2), 1.0)
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
PAIR = np.array([[-0.5, 0.0], [0.5, 0.0]])


class TestHullBound:
    def test_segmental_box(self):
        v = eac_hull_bound(UNIT_BOX, PAIR, "segmental", 1e-3)
        assert 2.0 <= v <= 2.0 / (1 - 1e-3)

    def test_singleton_is_zero(self):
        assert eac_hull_bound(UNIT_DISK, [(0.3, 0.1)], "convex") == 0.0

    def test_star_in_disk(self):
        v = eac_hull_bound(UNIT_DISK, PAIR, "star", 1e-3, star_center=(0, 0))
        assert 2.0 <= v <= 2.0 / (1 - 1e-3)

    def test_uncertified_hull_gives_infinity(self):
        from harnack.geometry import UnionOfBalls

        u = UnionOfBalls(
            np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0], [2.0, 0.0]]),
            np.full(4, 1.1),
        )
        assert eac_hull_bound(u, [(0.0, 0.0), (2.0, 2.0)], "segmental", 1e-2) == math.inf


class TestEstimator:
    def test_disk_pair_value(self):
        est = eac_estimate(UNIT_DISK, PAIR, grid_step=0.05)
        assert 2.0 <= est.value <= 2.1
        assert est.certified_upper

    def test_box_pair_value(self):
        est = eac_estimate(UNIT_BOX, PAIR, grid_step=0.05)
        assert 2.0 <= est.value <= 2.1

    def test_singleton(self):
        est = eac_estimate(UNIT_DISK, [(0.2, 0.2)], grid_step=0.1)
        assert est.value == 0.0
        assert est.per_pair == {}

    def test_set_monotone_same_grid(self):
        levels = np.geomspace(0.05, 0.5, 12)
        small = eac_estimate(UNIT_BOX, PAIR, 0.1, levels)
        big = eac_estimate(
            UNIT_BOX, np.vstack([PAIR, [[0.0, 0.6]]]), 0.1, levels
        )
        assert small.value <= big.value

    def test_domain_antimonotone_within_tolerance(self):
        # exact for true entropies; the discretized estimator may deviate
        # by grid slack, hence the documented 10% tolerance
        levels = np.geomspace(0.05, 0.5, 12)
        inner = eac_estimate(UNIT_DISK, PAIR, 0.05, levels)
        outer = eac_estimate(Ball(np.zeros(2), 2.0), PAIR, 0.05, None)
        assert inner.value >= outer.value * (1 - 0.10)

    def test_hull_domination(self):
        est = eac_estimate(UNIT_BOX, PAIR, 0.05)
        hull = eac_hull_bound(UNIT_BOX, PAIR, "segmental", 0.005)
        assert est.value <= hull + 0.05

    def test_polyline_feasibility(self):
        est = eac_estimate(UNIT_DISK, np.array([[-0.5, 0.2], [0.4, -0.3]]), 0.05)
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
            eac_estimate(cube4, [(0, 0, 0, 0), (0.5, 0, 0, 0)], 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            eac_estimate(UNIT_DISK, np.zeros((0, 2)), 0.1)


class TestBallChain:
    def test_degenerate_pair(self):
        est = eac_estimate(UNIT_DISK, PAIR, 0.1)
        x = np.array([-0.5, 0.0])
        chain = build_ball_chain(UNIT_DISK, x, x, 1.0, est)
        assert chain.hops == 0
        assert np.array_equal(chain.centers, np.vstack([x, x]))

    def test_disk_diameter_chain(self):
        est = eac_estimate(UNIT_DISK, PAIR, 0.02)
        chain = build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], 2.05, est)
        gaps = np.linalg.norm(np.diff(chain.centers, axis=0), axis=1)
        assert np.all(gaps <= chain.radius / 2 + 1e-12)  # (B1)
        assert chain.hops <= 2 * 2.05  # (B2)
        assert chain.hops <= 4
        assert np.all(UNIT_DISK.clearance(chain.centers) >= chain.radius - 1e-12)

    def test_huge_budget_same_chain(self):
        est = eac_estimate(UNIT_DISK, PAIR, 0.02)
        c1 = build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], 2.05, est)
        c2 = build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], 100.0, est)
        assert np.array_equal(c1.centers, c2.centers)
        assert c2.hops <= 200

    def test_endpoints_are_the_pair(self):
        est = eac_estimate(UNIT_BOX, PAIR, 0.05)
        chain = build_ball_chain(UNIT_BOX, PAIR[0], PAIR[1], 3.0, est)
        assert np.array_equal(chain.centers[0], PAIR[0])
        assert np.array_equal(chain.centers[-1], PAIR[1])

    def test_budget_must_exceed_estimate(self):
        est = eac_estimate(UNIT_DISK, PAIR, 0.05)
        with pytest.raises(ValueError, match="strictly exceed"):
            build_ball_chain(UNIT_DISK, PAIR[0], PAIR[1], est.value, est)

    def test_missing_pair_rejected(self):
        est = eac_estimate(UNIT_DISK, PAIR, 0.1)
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
    nodes = lattice_points(domain, grid_step)
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
    _, _, ii, jj, lengths, cert = _grid_graph(domain, step)
    want = _dict_loop_graph(domain, step)
    assert ii.size > 0
    for got, ref in zip((ii, jj, lengths, cert), want):
        assert np.array_equal(got, ref)
