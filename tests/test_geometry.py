import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack import geometry, separation
from harnack.geometry import (
    Ball,
    Box,
    Lattice,
    Polygon2D,
    UnionOfBalls,
    certified_segment_clearances,
    diameter,
    domain_from_dict,
    hull_clearance,
    load_point_set,
)
from segment_oracle import certified_segment_clearance

UNIT_DISK = Ball(np.zeros(2), 1.0)
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
SEGMENT_DOMAINS = {
    "disk": UNIT_DISK,
    "L": Polygon2D(np.array([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]], float)),
    "union3": UnionOfBalls(np.array([[-0.8, 0.0], [0.0, 0.2], [0.8, 0.0]]), np.full(3, 0.5)),
    "ball3d": Ball(np.array([0.1, 0.0, -0.2]), 1.0),
    "box3d": Box(-np.ones(3), np.array([1.0, 0.5, 1.0])),
}


def clearance_at(domain, x) -> float:
    """The clearance of one point."""
    return float(domain.clearance(x)[0])


def interior_points(domain, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    pts = rng.uniform(lo, hi, size=(50 * n, domain.dim))
    return pts[domain.clearance(pts) > 0][:n]


class TestDistToComplement:
    def test_ball_radial(self):
        assert clearance_at(UNIT_DISK, (0.4, 0)) == pytest.approx(0.6)

    def test_box_min_face(self):
        assert clearance_at(UNIT_BOX, (0.5, 0)) == pytest.approx(0.5)

    def test_exterior_point_is_zero(self):
        assert clearance_at(UNIT_DISK, (2, 0)) == 0.0

    def test_boundary_is_zero(self):
        assert clearance_at(UNIT_DISK, (1, 0)) == 0.0

    def test_ball_center_equals_radius(self):
        for r in (0.5, 1.0, 3.7):
            b = Ball(np.array([2.0, -1.0]), r)
            assert clearance_at(b, b.center) == r

    def test_polygon(self):
        tri = Polygon2D(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]))
        assert clearance_at(tri, (1.0, 1.0)) == pytest.approx(1.0)
        assert clearance_at(tri, (5.0, 5.0)) == 0.0

    def test_union_of_balls(self):
        u = UnionOfBalls(np.array([[0.0, 0.0], [1.5, 0.0]]), np.array([1.0, 1.0]))
        assert clearance_at(u, (0.0, 0.0)) == pytest.approx(1.0)
        assert clearance_at(u, (1.5, 0.0)) == pytest.approx(1.0)
        # overlap region: max of per-ball depths is a valid lower bound
        assert clearance_at(u, (0.75, 0.0)) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            clearance_at(UNIT_DISK, (0.0, 0.0, 0.0))


class TestContains:
    def test_center(self):
        assert clearance_at(UNIT_DISK, (0, 0)) > 0

    def test_boundary_excluded(self):
        assert not clearance_at(UNIT_DISK, (1, 0)) > 0

    def test_box_corner_region(self):
        assert clearance_at(UNIT_BOX, (0.99, -0.99)) > 0


class TestDiameter:
    def test_singleton(self):
        assert diameter([(0.0, 0.0)]) == 0.0

    def test_two_points(self):
        assert diameter([(-0.5, 0), (0.5, 0)]) == pytest.approx(1.0)

    def test_345_triangle(self):
        assert diameter([(0, 0), (3, 0), (0, 4)]) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diameter(np.zeros((0, 2)))


class TestHullClearance:
    def test_segmental_box(self):
        res = 1e-3
        v = hull_clearance(UNIT_BOX, [(-0.5, 0), (0.5, 0)], res)
        assert 0.5 - res / 2 <= v <= 0.5

    def test_hull_outside_domain_gives_zero(self):
        u = UnionOfBalls(
            np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0], [2.0, 0.0]]),
            np.full(4, 1.1),
        )
        # the segment between opposite lobes passes near the uncovered middle
        assert hull_clearance(u, [(0.0, 0.0), (2.0, 2.0)], 1e-2) == 0.0

    def test_finer_resolution_is_monotone(self):
        pts = [(-0.5, -0.2), (0.6, 0.1), (0.1, 0.55)]
        vals = [hull_clearance(UNIT_BOX, pts, res) for res in (0.2, 0.1, 0.05, 0.025)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hull_clearance(UNIT_BOX, np.zeros((0, 2)), 1e-3)

    @pytest.mark.parametrize("res", [0.0, -1.0, math.inf, math.nan])
    def test_resolution_must_be_positive_and_finite(self, res):
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            hull_clearance(UNIT_BOX, [(-0.5, 0), (0.5, 0)], res)

    @pytest.mark.parametrize("name", SEGMENT_DOMAINS)
    def test_segmental_matches_per_segment_loop(self, name):
        domain = SEGMENT_DOMAINS[name]
        res = 1e-3 * domain.bounding_diameter()
        for n in (1, 2, 7):
            p = interior_points(domain, n, seed=n)
            seg = float(domain.clearance(p).min())
            for i in range(n):
                for j in range(i + 1, n):
                    seg = min(seg, certified_segment_clearance(domain, p[i], p[j], res))
            assert hull_clearance(domain, p, res) == max(0.0, seg)


class TestSegmentClearances:
    @pytest.mark.parametrize("name", SEGMENT_DOMAINS)
    def test_matches_per_segment_function(self, name):
        domain = SEGMENT_DOMAINS[name]
        rng = np.random.default_rng(11)
        lo, hi = domain.bounding_box()
        a = rng.uniform(lo, hi, size=(60, domain.dim))
        b = rng.uniform(lo, hi, size=(60, domain.dim))
        b[::6] = a[::6]  # zero-length segments
        res = rng.uniform(1e-3, 0.5, size=60)
        want = [certified_segment_clearance(domain, p, q, r) for p, q, r in zip(a, b, res)]
        assert np.array_equal(certified_segment_clearances(domain, a, b, res), want)
        want = [certified_segment_clearance(domain, p, q, 0.01) for p, q in zip(a, b)]
        assert np.array_equal(certified_segment_clearances(domain, a, b, 0.01), want)

    def test_zero_segments_give_an_empty_array(self):
        got = certified_segment_clearances(UNIT_DISK, np.zeros((0, 2)), np.zeros((0, 2)), 0.01)
        assert got.shape == (0,)

    @pytest.mark.parametrize("res", [0.0, -1.0, math.inf, math.nan])
    def test_resolution_must_be_positive_and_finite(self, res):
        a, b = np.zeros((2, 2)), np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            certified_segment_clearances(UNIT_DISK, a, b, res)
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            certified_segment_clearances(UNIT_DISK, a, b, [0.01, res])

    def test_oversized_segment_refused_before_any_clearance_call(self, monkeypatch):
        calls = []
        clearance = Ball.clearance

        def recording_clearance(self, p):
            calls.append(len(p))
            assert len(p) <= 2, "segment samples reached the clearance"
            return clearance(self, p)

        monkeypatch.setattr(Ball, "clearance", recording_clearance)
        # the short first segment fits; the second needs 2^28 + 1 samples,
        # one more than the cap, and 2^29 + 1 at resolution 1e-9
        a, b = np.zeros((2, 2)), np.array([[0.1, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="^segment needs 268435457 samples, more than 268435456$"):
            certified_segment_clearances(UNIT_DISK, a, b, [0.01, 0.5 / 2**28])
        with pytest.raises(ValueError, match="needs 536870913 samples"):
            separation.verify_between_conditions(UNIT_DISK, [[0, 0], [0.5, 0]], 0.9, 1e-9)
        assert calls == [2]  # the polyline's points, not a segment sample

    def test_count_beyond_the_float_range_refused_before_any_clearance_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Ball, "clearance", lambda self, p: calls.append(len(p)))
        # 0.5 / 1e-320 is inf: no power of two is counted
        for refuse in (
            lambda: certified_segment_clearances(UNIT_DISK, [[0, 0]], [[0.5, 0]], 1e-320),
            lambda: hull_clearance(UNIT_DISK, [[0, 0], [0.5, 0]], 1e-320),
        ):
            with pytest.raises(ValueError, match="^segment needs more than 268435456 samples$"):
                refuse()
        assert calls == []

    def test_long_segment_is_cut_into_runs(self, monkeypatch):
        a = np.array([[-0.4, 0.1], [0.0, 0.0], [0.5, 0.5]])
        b = np.array([[0.6, -0.2], [0.0, 0.0], [0.0, 0.5]])
        want = certified_segment_clearances(UNIT_DISK, a, b, 1e-3)
        calls = []
        clearance = Ball.clearance

        def counting_clearance(self, p):
            calls.append(len(p))
            return clearance(self, p)

        monkeypatch.setattr(Ball, "clearance", counting_clearance)
        monkeypatch.setattr(geometry, "SEGMENT_BATCH_SAMPLES", 100)
        # 2049, 2 and 513 samples, in runs of at most 100
        assert np.array_equal(certified_segment_clearances(UNIT_DISK, a, b, 1e-3), want)
        assert sum(calls) == 2049 + 2 + 513 and max(calls) < 200

    def test_large_batches_are_split(self, monkeypatch):
        a = interior_points(UNIT_DISK, 20, seed=1)
        b = interior_points(UNIT_DISK, 20, seed=2)
        want = [certified_segment_clearance(UNIT_DISK, p, q, 0.02) for p, q in zip(a, b)]
        calls = []
        clearance = Ball.clearance

        def counting_clearance(self, p):
            calls.append(len(p))
            return clearance(self, p)

        monkeypatch.setattr(Ball, "clearance", counting_clearance)
        monkeypatch.setattr(geometry, "SEGMENT_BATCH_SAMPLES", 100)
        got = certified_segment_clearances(UNIT_DISK, a, b, 0.02)
        # a batch closes at 100 samples; one disk segment has at most 129
        assert len(calls) > 1 and max(calls) < 100 + 129
        assert np.array_equal(got, want)


class TestEnclosingBall:
    def test_ball_from_center(self):
        assert UNIT_DISK.enclosing_radius((0, 0)) == pytest.approx(1.0)

    def test_box_center(self):
        assert UNIT_BOX.enclosing_radius((0, 0)) == pytest.approx(math.sqrt(2))

    def test_box_off_center(self):
        assert UNIT_BOX.enclosing_radius((0.5, 0)) == pytest.approx(math.sqrt(3.25))

    def test_boundary_samples_within_radius(self):
        theta = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        circle = np.column_stack([np.cos(theta), np.sin(theta)])
        cases = [
            (UNIT_DISK, circle, (0.3, -0.2)),
            (UNIT_BOX, np.column_stack([np.cos(theta), np.sin(theta)]) * 0, (0.5, 0)),
        ]
        # box boundary: walk the four edges
        t = np.linspace(-1, 1, 64)
        box_bdry = np.vstack(
            [
                np.column_stack([t, np.full_like(t, -1.0)]),
                np.column_stack([t, np.full_like(t, 1.0)]),
                np.column_stack([np.full_like(t, -1.0), t]),
                np.column_stack([np.full_like(t, 1.0), t]),
            ]
        )
        cases[1] = (UNIT_BOX, box_bdry, (0.5, 0))
        for dom, bdry, center in cases:
            r = dom.enclosing_radius(center)
            dist = np.linalg.norm(bdry - np.asarray(center), axis=1)
            assert np.all(dist <= r + 1e-12)


# every shape in d = 2 and, where it has one, d = 3; the pentagon has
# slanted edges and a reflex vertex
LIPSCHITZ_DOMAINS = {
    "disk": UNIT_DISK,
    "ball3d": Ball(np.array([0.1, 0.0, -0.2]), 1.3),
    "box": Box(np.array([-1.0, -0.5]), np.array([2.0, 1.0])),
    "box3d": Box(-np.ones(3), np.array([1.0, 0.5, 1.0])),
    "L": SEGMENT_DOMAINS["L"],
    "pentagon": Polygon2D(np.array([[0.0, 0.0], [2.0, 0.3], [1.1, 1.0], [2.4, 1.9], [-0.3, 1.4]])),
    "union3": SEGMENT_DOMAINS["union3"],
    "union3d": UnionOfBalls(np.array([[-0.5, 0.0, 0.0], [0.5, 0.1, 0.0], [0.3, 0.7, 0.4]]),
                            np.array([0.6, 0.5, 0.4])),
}


class TestLipschitz:
    @pytest.mark.parametrize(
        "domain",
        [
            UNIT_DISK,
            UNIT_BOX,
            Polygon2D(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.0, 3.0], [0.0, 2.0]])),
            UnionOfBalls(np.array([[0.0, 0.0], [1.2, 0.0], [2.4, 0.3]]), np.array([1.0, 0.8, 0.9])),
        ],
    )
    def test_clearance_is_1_lipschitz(self, domain):
        rng = np.random.default_rng(7)
        lo, hi = domain.bounding_box()
        span = hi - lo
        p = lo + rng.random((400, 2)) * span * 1.2 - 0.1 * span
        q = lo + rng.random((400, 2)) * span * 1.2 - 0.1 * span
        cp = domain.clearance(p)
        cq = domain.clearance(q)
        gap = np.linalg.norm(p - q, axis=1)
        assert np.all(np.abs(cp - cq) <= gap + 1e-12)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(LIPSCHITZ_DOMAINS)),
        u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        w=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        scale=st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3, 3.0]),
    )
    def test_near_and_far_pairs_in_2d_and_3d(self, name, u, w, scale):
        """As above, in d = 3 too and for pairs down to 1e-9 apart, with
        single-point and batched calls."""
        domain = LIPSCHITZ_DOMAINS[name]
        lo, hi = domain.bounding_box()
        d = domain.dim
        p = lo - 0.2 + np.asarray(u[:d]) * (hi - lo + 0.4)
        q = p + scale * np.asarray(w[:d])
        gap = float(np.linalg.norm(p - q))
        batched = domain.clearance(np.vstack([p, q]))
        single = [clearance_at(domain, p), clearance_at(domain, q)]
        for cp, cq in (batched, single):
            assert cp >= 0.0 and cq >= 0.0
            assert abs(cp - cq) <= gap + 1e-12


class TestValidation:
    def test_clockwise_polygon_rejected(self):
        with pytest.raises(ValueError, match="counterclockwise"):
            Polygon2D(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))

    def test_self_intersecting_polygon_rejected(self):
        with pytest.raises(ValueError, match="simple"):
            Polygon2D(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [2.0, -1.0], [0.0, 4.0]]))

    def test_disconnected_union_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            UnionOfBalls(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, 1.0]))

    def test_point_set_requires_interior_points(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[0.0, 0.0], [1.0, 0.0]]}))
        with pytest.raises(ValueError, match=r"point \[1.0, 0.0\] is not interior to the domain"):
            load_point_set(path, UNIT_DISK)

    def test_interior_clearances_refuses_the_first_exterior_point(self):
        p, clear = geometry.interior_clearances(UNIT_DISK, [[0.5, 0.0], [0.0, -0.25]])
        assert np.array_equal(p, [[0.5, 0.0], [0.0, -0.25]])
        assert np.array_equal(clear, [0.5, 0.75])
        with pytest.raises(ValueError, match=r"point \[0.0, 1.0\] is not interior"):
            geometry.interior_clearances(UNIT_DISK, [[0.5, 0.0], [0.0, 1.0], [2.0, 0.0]])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


# one literal domain document per shape, as a domain file holds it
DOCUMENTS = {
    Ball: {"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 1}},
    Box: {"dim": 2, "shape": {"type": "box", "min": [-1, -1], "max": [1, 1]}},
    Polygon2D: {"dim": 2, "shape": {"type": "polygon", "vertices": [[0, 0], [2, 0], [1, 2]]}},
    UnionOfBalls: {
        "dim": 2,
        "shape": {
            "type": "union_of_balls",
            "balls": [{"center": [0, 0], "radius": 1}, {"center": [1, 0], "radius": 1}],
        },
    },
}


class TestFileFormat:
    @pytest.mark.parametrize(
        "domain",
        [
            UNIT_DISK,
            UNIT_BOX,
            Polygon2D(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])),
            UnionOfBalls(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0])),
        ],
    )
    def test_round_trip(self, domain):
        loaded = domain_from_dict(DOCUMENTS[type(domain)])
        assert type(loaded) is type(domain)
        pts = np.array([[0.1, 0.2], [0.3, -0.1], [1.5, 0.0]])
        assert np.array_equal(loaded.clearance(pts), domain.clearance(pts))

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown shape"):
            domain_from_dict({"dim": 2, "shape": {"type": "torus"}})

    def test_load_point_set_returns_the_checked_array(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": [[0.1, -0.2], [-0.3, 0]]}))
        p = load_point_set(path, UNIT_DISK)
        assert isinstance(p, np.ndarray) and p.dtype == float
        assert np.array_equal(p, [[0.1, -0.2], [-0.3, 0.0]])

    @pytest.mark.parametrize(
        "points,message",
        [
            ([], "point set must be nonempty"),
            ([[0.1, 0.2, 0.3]], "dimension mismatch"),
            ([[0.1, float("nan")]], "finite coordinates"),
        ],
    )
    def test_load_point_set_refusals(self, tmp_path, points, message):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": points}))
        with pytest.raises(ValueError, match=message):
            load_point_set(path, UNIT_DISK)


class TestLattice:
    def test_nine_by_nine_inside_unit_box(self):
        nodes = Lattice(UNIT_BOX, 0.2).nodes
        assert nodes.shape == (81, 2)
        assert np.all(UNIT_BOX.clearance(nodes) > 0)

    @pytest.mark.parametrize("name", sorted(SEGMENT_DOMAINS))
    def test_keeps_the_clearances_of_its_nodes(self, name):
        domain = SEGMENT_DOMAINS[name]
        lattice = Lattice(domain, 0.1)
        assert lattice.nodes.shape[0] > 0 and lattice.clear.shape == lattice.nodes.shape[:1]
        assert np.array_equal(lattice.clear, domain.clearance(lattice.nodes))
        assert np.all(lattice.clear > 0)
        assert np.array_equal(np.rint(lattice.nodes / 0.1) * 0.1, lattice.nodes)

    def test_is_frozen(self):
        lattice = Lattice(UNIT_DISK, 0.1)
        with pytest.raises(AttributeError):
            lattice.step = 0.2

    def test_refuses_high_dimension_before_the_budget(self):
        cube4 = Box(-np.ones(4), np.ones(4))
        # 2^44 candidates: the dimension is refused first
        with pytest.raises(geometry.GridDimensionError, match="d=4 > 3"):
            Lattice(cube4, 2.0**-10)

    def test_candidates_match_the_mesh_size(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(20):
                lo = rng.uniform(-2.0, 1.0, d)
                for domain in (
                    Box(lo, lo + rng.uniform(0.05, 1.5, d)),
                    Ball(lo, rng.uniform(0.05, 1.0)),
                ):
                    step = rng.uniform(0.04, 0.3)
                    axes = [
                        np.arange(math.ceil(l / step), math.floor(h / step) + 1) * step
                        for l, h in zip(*domain.bounding_box())
                    ]
                    mesh = np.meshgrid(*axes, indexing="ij")[0]
                    assert geometry.lattice_candidates(domain, step) == mesh.size

    def test_budget_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(geometry.LatticeBudgetError, match="lattice candidates"):
                Lattice(UNIT_DISK, 1e-4)
            with pytest.raises(geometry.LatticeBudgetError, match="inf lattice candidates"):
                Lattice(UNIT_DISK, 1e-320)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="positive and finite"):
            Lattice(UNIT_DISK, step)

    def test_budget_admits_its_own_size(self, monkeypatch):
        class MeshBuilt(Exception):
            pass

        def mesh(*args, **kwargs):  # past the budget check, before allocating
            raise MeshBuilt

        monkeypatch.setattr(np, "meshgrid", mesh)
        # 2048 x 2048 = 2^22 candidates in the square [0, 2047 h]^2
        step = 0.5
        square = Box(np.zeros(2), np.full(2, 2047 * step))
        assert geometry.lattice_candidates(square, step) == geometry.LATTICE_BUDGET
        with pytest.raises(MeshBuilt):
            Lattice(square, step)
        wider = Box(np.zeros(2), np.array([2047 * step, 2048 * step]))
        with pytest.raises(geometry.LatticeBudgetError):
            Lattice(wider, step)


def _row_clearance(domain, p):
    """The former clearances, broadcast over the rows of an (n, d) array."""
    if isinstance(domain, Polygon2D):
        v = domain.vertices
        inside = np.zeros(p.shape[0], dtype=bool)
        best = np.full(p.shape[0], np.inf)
        for a, b in zip(v, np.roll(v, -1, axis=0)):
            cond = (a[1] > p[:, 1]) != (b[1] > p[:, 1])
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = a[0] + (p[:, 1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            inside ^= cond & (p[:, 0] < xint)
            ab = b - a
            t = np.clip(((p - a) @ ab) / (ab @ ab), 0.0, 1.0)
            proj = a + t[:, None] * ab
            best = np.minimum(best, np.linalg.norm(p - proj, axis=1))
        return np.where(inside, best, 0.0)
    if isinstance(domain, Ball):
        return np.maximum(0.0, domain.radius - np.linalg.norm(p - domain.center, axis=1))
    if isinstance(domain, Box):
        return np.maximum(0.0, np.minimum(p - domain.lo, domain.hi - p).min(axis=1))
    d = np.linalg.norm(p[:, None, :] - domain.centers[None, :, :], axis=2)
    return np.maximum(0.0, (domain.radii[None, :] - d).max(axis=1))


class TestColumnClearance:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("shape", ["ball", "box", "union"])
    def test_equal_to_the_row_wise_expressions(self, shape, dim):
        rng = np.random.default_rng(dim)
        if shape == "ball":
            domain = Ball(rng.uniform(-0.3, 0.3, dim), 0.9)
        elif shape == "box":
            domain = Box(-np.ones(dim), np.array([1.0, 0.5, 1.0])[:dim])
        else:
            centers = np.array([[-0.8, 0.0, 0.1], [0.0, 0.2, 0.0], [0.8, 0.0, -0.1]])[:, :dim]
            domain = UnionOfBalls(centers, np.array([0.5, 0.6, 0.5]))
        p = rng.uniform(-1.5, 1.5, size=(100_000, dim))
        assert np.array_equal(domain.clearance(p), _row_clearance(domain, p))
        assert np.array_equal(domain.clearance(p[:0]), np.zeros(0))

    @pytest.mark.parametrize("name", ["L", "slanted"])
    def test_polygon_equal_to_the_row_wise_expressions(self, name):
        rng = np.random.default_rng(7)
        domain = {
            "L": SEGMENT_DOMAINS["L"],
            "slanted": Polygon2D(
                np.array([[0.0, 0.0], [3.0, 0.2], [2.5, 2.0], [1.0, 1.1], [0.2, 2.5]])
            ),
        }[name]
        lo, hi = domain.bounding_box()
        for n in (1, 7, 100_000):
            p = rng.uniform(lo - 0.5, hi + 0.5, size=(n, 2))
            assert np.array_equal(domain.clearance(p), _row_clearance(domain, p))
        assert np.array_equal(domain.clearance(p[:0]), np.zeros(0))


def _searchsorted_neighbors(nodes, step, offsets):
    """The former lookup: one searchsorted pass over the sorted keys per offset."""
    keys = np.rint(nodes / step).astype(np.int64)
    n = keys.shape[0]
    ii, jj = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    if n:
        lo = keys.min(axis=0)
        ext = keys.max(axis=0) - lo + 1
        keys -= lo
        flat = np.ravel_multi_index(keys.T, ext)
        order = np.argsort(flat)
        flat = flat[order]
        for o in np.asarray(offsets, dtype=np.int64).reshape(-1, keys.shape[1]):
            moved = keys + o
            i = np.flatnonzero(np.all((moved >= 0) & (moved < ext), axis=1))
            want = np.ravel_multi_index(moved[i].T, ext)
            pos = np.minimum(np.searchsorted(flat, want), n - 1)
            hit = flat[pos] == want
            ii.append(i[hit])
            jj.append(order[pos[hit]])
    return np.concatenate(ii), np.concatenate(jj)


NEIGHBOR_LATTICES = {
    "disk": (UNIT_DISK, 0.1),
    "shifted_disk": (Ball(np.array([-3.3, -1.7]), 0.6), 0.07),  # negative keys only
    "L": (SEGMENT_DOMAINS["L"], 0.1),
    "union3": (SEGMENT_DOMAINS["union3"], 0.08),
    "ball3d": (SEGMENT_DOMAINS["ball3d"], 0.2),
    "box3d": (SEGMENT_DOMAINS["box3d"], 0.25),
}


def _half_offsets(d, reach2):
    """The lexicographically positive integer offsets o with |o|^2 <= reach2,
    in lexicographic order."""
    r = math.isqrt(reach2)
    box = itertools.product(range(-r, r + 1), repeat=d)
    return np.array([o for o in box if o > (0,) * d and sum(k * k for k in o) <= reach2])


class TestLatticePairs:
    @pytest.mark.parametrize("name", sorted(NEIGHBOR_LATTICES))
    def test_matches_the_searchsorted_loop(self, name):
        domain, step = NEIGHBOR_LATTICES[name]
        lattice = Lattice(domain, step)
        nodes, n = lattice.nodes, lattice.nodes.shape[0]
        keys = np.rint(nodes / step).astype(np.int64)
        beyond = int(((keys.max(axis=0) - keys.min(axis=0) + 1) ** 2).sum())
        for reach2 in (domain.dim, 16, beyond):
            i, j, dist = lattice.pairs(reach2)
            want = _searchsorted_neighbors(nodes, step, _half_offsets(domain.dim, reach2))
            for got, w in zip((i, j), want):
                assert got.dtype == np.intp
                assert np.array_equal(got, w)
            assert np.array_equal(dist, np.linalg.norm(nodes[i] - nodes[j], axis=1))
        # beyond the span, every pair of nodes once
        assert i.size == n * (n - 1) // 2

    def test_empty_lattice(self):
        lattice = Lattice(Ball(np.full(3, 0.05), 0.04), 0.1)
        assert lattice.nodes.shape == (0, 3)
        for reach2 in (3, 16):
            i, j, dist = lattice.pairs(reach2)
            assert i.dtype == j.dtype == np.intp
            assert i.size == j.size == dist.size == 0
