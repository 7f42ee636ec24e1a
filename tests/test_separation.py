import itertools
import math
import tracemalloc

import numpy as np
import pytest

from harnack import geometry
from harnack.exact import ball_harnack_two_points
from harnack.geometry import Ball, Box, Lattice, Polygon2D, UnionOfBalls
from harnack.separation import (
    chain_bound,
    pair_bound,
    pair_bound_from_q,
    pair_separation,
    sequence_separation,
    set_harnack_bound,
    set_separation,
    verify_between_conditions,
)

UNIT_DISK = Ball(np.zeros(2), 1.0)
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


class TestPairSeparation:
    def test_coincident_is_zero(self):
        assert pair_separation(UNIT_DISK, (0.3, 0.1), (0.3, 0.1)) == 0.0

    def test_symmetric_pair(self):
        assert pair_separation(UNIT_DISK, (-0.4, 0), (0.4, 0)) == pytest.approx(2 / 3)

    def test_touching_balls_give_one(self):
        assert pair_separation(UNIT_DISK, (-0.5, 0), (0.5, 0)) == pytest.approx(1.0)

    def test_exterior_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            pair_separation(UNIT_DISK, (0, 0), (1, 0))


class TestOneClearanceCall:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        clearance = Ball.clearance

        def counting(self, pts):
            calls.append(1)
            return clearance(self, pts)

        monkeypatch.setattr(Ball, "clearance", counting)
        return calls

    def test_pair_separation(self, calls):
        assert pair_separation(UNIT_DISK, (-0.4, 0), (0.4, 0)) == pytest.approx(2 / 3)
        assert len(calls) == 1

    def test_sequence_separation(self, calls):
        assert sequence_separation(UNIT_DISK, [(-0.4, 0), (0, 0), (0.4, 0)]) == 0.25
        assert len(calls) == 1


class TestPairBound:
    def test_at_zero_separation(self):
        assert pair_bound_from_q(0.0, 2) == (16.0, 9.0)

    def test_disk_pair_stated(self):
        stated, _ = pair_bound(UNIT_DISK, (-0.4, 0), (0.4, 0))
        assert stated == pytest.approx(144.0, rel=1e-12)

    def test_disk_pair_proof_sharp(self):
        _, proof_sharp = pair_bound(UNIT_DISK, (-0.4, 0), (0.4, 0))
        assert proof_sharp == pytest.approx(121.0, rel=1e-12)

    def test_separation_one_rejected(self):
        with pytest.raises(ValueError, match="single-link"):
            pair_bound(UNIT_DISK, (-0.5, 0), (0.5, 0))

    def test_overflow_gives_infinity(self):
        q = 1.0 - 2.0**-52
        assert pair_bound_from_q(q, 12) == (math.inf, math.inf)

    def test_proof_sharp_below_stated(self):
        for d in range(2, 7):
            for q in np.arange(0.0, 1.0, 0.01):
                stated, proof_sharp = pair_bound_from_q(q, d)
                assert proof_sharp <= stated

    def test_strictly_increasing_in_q(self):
        qs = np.linspace(0, 0.99, 100)
        for d in (2, 3, 4):
            vals = [pair_bound_from_q(q, d)[0] for q in qs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSequenceSeparation:
    def test_constant_sequence(self):
        x = (0.2, 0.2)
        assert sequence_separation(UNIT_DISK, [x, x, x]) == 0.0

    def test_three_point_chain(self):
        v = sequence_separation(UNIT_DISK, [(-0.4, 0), (0, 0), (0.4, 0)])
        assert v == pytest.approx(0.25)

    def test_two_points_match_pair(self):
        v = sequence_separation(UNIT_DISK, [(-0.4, 0), (0.4, 0)])
        assert v == pair_separation(UNIT_DISK, (-0.4, 0), (0.4, 0))


class TestSetSeparation:
    def test_target_equals_start(self):
        res = set_separation(Lattice(UNIT_DISK, 0.1), np.array([0.2, 0.0]), np.array([[0.2, 0.0]]), 3)
        assert res.value == 0.0

    def test_one_hop_reduces_to_pair(self):
        res = set_separation(Lattice(UNIT_DISK, 0.1), np.array([-0.4, 0.0]), np.array([[0.4, 0.0]]), 1)
        assert res.value == pair_separation(UNIT_DISK, (-0.4, 0), (0.4, 0))

    def test_two_hops_find_midpoint(self):
        res = set_separation(Lattice(UNIT_DISK, 0.05), np.array([-0.4, 0.0]), np.array([[0.4, 0.0]]), 2)
        assert res.value <= 0.25 + 0.05

    def test_nonincreasing_in_hops(self):
        start = np.array([-0.6, 0.1])
        targets = np.array([[0.5, -0.2], [0.2, 0.6]])
        vals = [
            set_separation(Lattice(UNIT_DISK, 0.1), start, targets, l).value
            for l in (1, 2, 3, 4)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_value_is_max_over_targets(self):
        targets = np.array([[0.5, 0.0], [0.0, 0.9]])
        res = set_separation(Lattice(UNIT_BOX, 0.1), np.array([0.0, 0.0]), targets, 2)
        assert res.value == max(v for v, _ in res.per_target.values())

    def test_witness_value_matches_its_polyline(self):
        res = set_separation(Lattice(UNIT_BOX, 0.2), np.array([-0.5, -0.5]), np.array([[0.6, 0.4]]), 3)
        val, poly = res.per_target[0]
        assert math.isfinite(val)
        assert poly.shape[0] == res.hops + 1
        assert val == sequence_separation(UNIT_BOX, poly) or val == 0.0

    def test_brute_force_oracle_small(self):
        lattice = Lattice(UNIT_BOX, 0.5)
        start = np.array([-0.5, -0.5])
        targets = np.array([[0.5, 0.5]])
        pts = np.vstack([lattice.nodes, start[None, :], targets])
        clear = UNIT_BOX.clearance(pts)
        n = pts.shape[0]
        cost = np.full((n, n), np.inf)
        for i in range(n):
            for j in range(n):
                c = pair_separation(UNIT_BOX, pts[i], pts[j])
                cost[i, j] = c if c < 1.0 else np.inf
            cost[i, i] = 0.0
        i0, it = n - 2, n - 1
        for hops in (1, 2, 3):
            res = set_separation(lattice, start, targets, hops).per_target[0][0]
            best = math.inf
            for mids in itertools.product(range(n), repeat=hops - 1):
                seq = [i0, *mids, it]
                val = max(cost[a][b] for a, b in zip(seq[:-1], seq[1:]))
                best = min(best, val)
            assert res == best

    def test_hops_below_one_rejected(self, monkeypatch):
        # refused up front, before the start and targets are checked
        lattice = Lattice(UNIT_DISK, 0.1)
        calls = []
        monkeypatch.setattr(Ball, "clearance", lambda self, pts: calls.append(pts))
        with pytest.raises(ValueError, match="hops"):
            set_separation(lattice, np.array([0.0, 0.0]), np.array([[0.1, 0.0]]), 0)
        assert calls == []

    @pytest.mark.parametrize("hops", [0, -2])
    def test_solver_rejects_hops_below_one(self, hops):
        with pytest.raises(ValueError, match="hops must be >= 1"):
            set_separation(Lattice(UNIT_DISK, 0.1), np.array([0.0, 0.0]), np.array([[0.1, 0.0]]), hops)

    @pytest.mark.parametrize(
        "start,targets",
        [([0.0, 1.5], [[0.1, 0.0]]), ([0.0, 0.0], [[0.1, 0.0], [1.0, 0.0]])],
        ids=["start", "target"],
    )
    def test_exterior_points_rejected_by_the_solve(self, start, targets):
        with pytest.raises(ValueError, match="is not interior to the domain"):
            set_separation(Lattice(UNIT_DISK, 0.1), np.array(start), np.array(targets), 2)

    def test_zero_targets_refused(self):
        with pytest.raises(ValueError, match="point set must be nonempty"):
            set_separation(Lattice(UNIT_DISK, 0.1), np.array([0.0, 0.0]), np.zeros((0, 2)), 2)

    def test_start_of_several_points_refused(self):
        with pytest.raises(ValueError, match="^start must be one point$"):
            set_separation(Lattice(UNIT_DISK, 0.1), np.zeros((2, 2)), np.array([[0.1, 0.0]]), 2)

    def test_lattice_without_nodes_still_solves_three_hops(self):
        lattice = Lattice(Ball([0.05, 0.05], 0.04), 0.1)
        assert lattice.nodes.shape[0] == 0
        start, target = np.array([0.05, 0.05]), np.array([0.06, 0.05])
        res = set_separation(lattice, start, target[None, :], 3)
        val, poly = res.per_target[0]
        assert res.value == val == pair_separation(lattice.domain, start, target)
        assert val == pytest.approx(1 / 7, rel=1e-12)
        assert np.array_equal(poly, [start, start, start, target])


def _dense_solve(lattice, start, targets, hops):
    """The former dense solver: an (N+m)^2 cost matrix and an argmin DP."""
    n_grid = lattice.nodes.shape[0]
    pts = np.vstack([lattice.nodes, start[None, :], targets])
    clear = np.concatenate([lattice.clear, lattice.domain.clearance(pts[n_grid:])])
    diff = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    cost = diff / (clear[:, None] + clear[None, :])
    far = np.zeros(cost.shape, dtype=bool)
    far[:n_grid, :n_grid] = diff[:n_grid, :n_grid] > 4.0 * lattice.step
    cost[far] = np.inf
    cost[cost >= 1.0] = np.inf
    np.fill_diagonal(cost, 0.0)
    f = np.full(pts.shape[0], np.inf)
    f[n_grid] = 0.0
    preds = []
    for _ in range(hops):
        layer = np.maximum(f[:, None], cost)
        preds.append(np.argmin(layer, axis=0))  # first index wins ties
        f = layer.min(axis=0)
    per_target = {}
    for t in range(targets.shape[0]):
        path = [n_grid + 1 + t]
        val = float(f[path[0]])
        if not math.isfinite(val):
            per_target[t] = (val, None)
            continue
        for k in range(hops - 1, -1, -1):
            path.append(int(preds[k][path[-1]]))
        per_target[t] = (val, pts[np.array(path[::-1])])
    return per_target


SOLVER_DOMAINS = {
    "disk": (UNIT_DISK, 0.1),
    "L": (Polygon2D(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)), 0.1),
    "union3": (UnionOfBalls(np.array([[-0.8, 0.0], [0.0, 0.2], [0.8, 0.0]]), np.full(3, 0.5)), 0.08),
    "ball3d": (Ball(np.zeros(3), 1.0), 0.2),
    "box3d": (Box(-np.ones(3), np.ones(3)), 0.25),
}


def _interior_points(domain, k, rng):
    lo, hi = domain.bounding_box()
    pts = []
    while len(pts) < k:
        p = rng.uniform(lo, hi)
        if domain.clearance(p)[0] > 0.05:
            pts.append(p)
    return np.array(pts)


class TestSparseSolverMatchesDense:
    def assert_same(self, lattice, start, targets, hops):
        res = set_separation(lattice, start, targets, hops)
        got = res.per_target
        want = _dense_solve(lattice, start, targets, hops)
        assert res.value == max(v for v, _ in want.values())
        for t, (val, poly) in want.items():
            assert got[t][0] == val
            if poly is None:
                assert got[t][1] is None
            else:
                assert np.array_equal(got[t][1], poly)
        return got

    @pytest.mark.parametrize("name", sorted(SOLVER_DOMAINS))
    @pytest.mark.parametrize("grid", ["default", "beyond_domain"])
    def test_seeded_instances(self, name, grid):
        domain, step = SOLVER_DOMAINS[name]
        if grid == "beyond_domain":
            # 4 steps pass the lattice's span on every axis: all node pairs link
            lattice = Lattice(domain, domain.bounding_diameter() / 4.0)
            n = lattice.nodes.shape[0]
            assert n > 1 and lattice.pairs(16)[0].size == n * (n - 1) // 2
        else:
            lattice = Lattice(domain, step)
        rng = np.random.default_rng(2021)
        for _ in range(3):
            pts = _interior_points(domain, 5, rng)
            for hops in (1, 2, 3):
                self.assert_same(lattice, pts[0], pts[1:], hops)

    def test_unreachable_targets(self):
        start = np.array([-0.6, 0.0])
        targets = np.array([[0.6, 0.0], [-0.5, 0.1]])  # q = 1.5 and q < 1
        got = self.assert_same(Lattice(UNIT_DISK, 0.1), start, targets, 1)
        assert got[0] == (math.inf, None)
        assert math.isfinite(got[1][0])

    def test_allocation_ceiling(self):
        start = np.array([-0.6, 0.1])
        targets = np.array([[0.5, -0.2], [0.2, 0.6], [-0.1, -0.7], [0.7, 0.3]])
        tracemalloc.start()
        try:
            set_separation(Lattice(UNIT_DISK, 0.025), start, targets, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestGridEdgesOnDemand:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = []

        pairs = Lattice.pairs

        def counting(self, reach2):
            count.append(1)
            return pairs(self, reach2)

        monkeypatch.setattr(Lattice, "pairs", counting)
        return count

    def test_two_hops_build_no_grid_edges(self, calls):
        lattice = Lattice(UNIT_DISK, 0.1)
        start, targets = np.array([-0.5, 0.1]), np.array([[0.5, -0.2], [0.1, 0.6]])
        for hops in (1, 2, 1, 2):
            set_separation(lattice, start, targets, hops)
        assert calls == []

    def test_three_hops_build_them_once(self, calls):
        lattice = Lattice(UNIT_DISK, 0.1)
        start, targets = np.array([-0.5, 0.1]), np.array([[0.5, -0.2], [0.1, 0.6]])
        for t in range(3):
            set_separation(lattice, start, targets[t % 2 :], 3)
            assert calls == [1] * (t + 1)  # each 3-hop call builds them once


class TestLatticeClearancesOnce:
    L_POLYGON = Polygon2D(np.array([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]], float))

    def test_solver_keeps_the_clearances_that_select_its_nodes(self, monkeypatch):
        sizes = []
        clearance = Polygon2D.clearance

        def recording(self, pts):
            sizes.append(len(np.atleast_2d(pts)))
            return clearance(self, pts)

        monkeypatch.setattr(Polygon2D, "clearance", recording)
        lattice = Lattice(self.L_POLYGON, 0.1)
        # one call over the lattice candidates, none over the nodes again
        assert sizes == [geometry.lattice_candidates(self.L_POLYGON, 0.1)]
        # a solve evaluates the start and the targets, in one call
        start, targets = np.array([-0.5, -0.5]), np.array([[0.5, -0.5], [-0.5, 0.5]])
        set_separation(lattice, start, targets, 3)
        assert sizes[1:] == [3]
        monkeypatch.setattr(Polygon2D, "clearance", clearance)
        assert np.array_equal(lattice.nodes, Lattice(self.L_POLYGON, 0.1).nodes)
        assert np.array_equal(lattice.clear, self.L_POLYGON.clearance(lattice.nodes))


class TestSetHarnackBound:
    def test_zero_q_one_hop(self):
        assert set_harnack_bound(0.0, 1, 2) == 16.0

    def test_half_q_two_hops(self):
        assert set_harnack_bound(0.5, 2, 2) == pytest.approx(1024.0, rel=1e-12)

    def test_quarter_q_three_d(self):
        assert set_harnack_bound(0.25, 2, 3) == pytest.approx(
            2**12 / 0.75**4, rel=1e-12
        )

    def test_strictly_increasing_in_q(self):
        qs = np.linspace(0, 0.99, 100)
        vals = [set_harnack_bound(q, 2, 2) for q in qs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_overflow_gives_infinity(self):
        assert set_harnack_bound(0.5, 300, 2) == math.inf  # 2^1200
        assert set_harnack_bound(1.0 - 1e-15, 100, 2) == math.inf  # (1-q)^100 is 0

    def test_sep_above_one_rejected(self):
        with pytest.raises(ValueError, match="sep >= 1"):
            set_harnack_bound(1.0, 2, 2)


class TestChainBound:
    def test_degenerate_chain(self):
        x = (0.2, 0.2)
        assert chain_bound(UNIT_DISK, [x, x])[0] == 16.0

    def test_three_point_proof_sharp(self):
        _, v = chain_bound(UNIT_DISK, [(-0.4, 0), (0, 0), (0.4, 0)])
        assert v == pytest.approx((13.0 / 3.0) ** 4, rel=1e-12)

    def test_dominates_disk_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a, b = rng.uniform(-0.55, 0.55, size=(2, 2))
            chain = [a, 0.5 * (a + b) * 0.0, b]  # through the center
            _, v = chain_bound(UNIT_DISK, chain)
            assert v >= ball_harnack_two_points(a, b, UNIT_DISK.center, UNIT_DISK.radius) - 1e-9

    def test_bad_link_identified(self):
        with pytest.raises(ValueError, match="link 0"):
            chain_bound(UNIT_DISK, [(-0.5, 0), (0.5, 0)])

    def test_one_clearance_call_and_the_pairwise_links(self, monkeypatch):
        chain = [(-0.6, 0.1), (-0.2, 0.3), (0.1, -0.2), (0.5, 0.0)]
        want = math.prod(pair_bound(UNIT_DISK, a, b)[1] for a, b in zip(chain, chain[1:]))
        calls = []
        clearance = Ball.clearance

        def counting(self, pts):
            calls.append(1)
            return clearance(self, pts)

        monkeypatch.setattr(Ball, "clearance", counting)
        assert chain_bound(UNIT_DISK, chain)[1] == want
        assert len(calls) == 1

    def test_exterior_link_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            chain_bound(UNIT_DISK, [(0.0, 0.0), (1.0, 0.0)])


class TestBetweenConditions:
    def test_single_point_passes(self):
        ok, report = verify_between_conditions(UNIT_DISK, [(0.2, 0.1)], 0.0)
        assert ok and report["links"] == 0

    def test_pair_at_exact_level(self):
        ok, _ = verify_between_conditions(UNIT_DISK, [(-0.4, 0), (0.4, 0)], 2 / 3)
        assert ok
        ok, report = verify_between_conditions(UNIT_DISK, [(-0.4, 0), (0.4, 0)], 0.6)
        assert not ok and report["first_violation"] == 0

    @pytest.mark.parametrize("res", [0.0, -1.0, math.inf, math.nan])
    def test_resolution_must_be_positive_and_finite(self, res):
        for polyline in ([(0.2, 0.1)], [(-0.4, 0), (0, 0), (0.4, 0)]):
            with pytest.raises(ValueError, match="resolution must be positive and finite"):
                verify_between_conditions(UNIT_DISK, polyline, 0.5, res)

    def test_one_clearance_call_for_all_segments(self, monkeypatch):
        calls = []
        clearance = Ball.clearance

        def counting(self, pts):
            calls.append(len(pts))
            return clearance(self, pts)

        monkeypatch.setattr(Ball, "clearance", counting)
        ok, _ = verify_between_conditions(UNIT_DISK, [(-0.4, 0), (0, 0), (0.4, 0), (0.4, 0.3)], 0.5)
        assert ok
        assert len(calls) == 2  # the points, then every segment's samples

    @pytest.mark.parametrize("scale", [1e3, 1e-6])
    def test_tolerance_is_on_q_at_any_scale(self, scale):
        disk = Ball(np.zeros(2), scale)
        polyline = [(-0.4 * scale, 0.0), (0.4 * scale, 0.0)]
        link = sequence_separation(disk, polyline)
        assert verify_between_conditions(disk, polyline, link)[0]
        assert verify_between_conditions(disk, polyline, link - 5e-16)[0]
        # a distance tolerance of 1e-15 would pass this at scale 1e-6
        ok, report = verify_between_conditions(disk, polyline, link - 1e-14)
        assert not ok and report["reason"] == "link separation exceeds q"

    def test_three_point_chain_passes(self):
        ok, _ = verify_between_conditions(
            UNIT_DISK, [(-0.4, 0), (0, 0), (0.4, 0)], 0.25
        )
        assert ok
