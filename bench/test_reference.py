"""Self-tests of the benchmark's reference computations and inputs.

Run with ``python -m pytest bench``.  These tests use closed forms and
cross-checks between the references only; they never call the library.
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads

DISK = {"dim": 2, "shape": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}
SQUARE_BOX = {"dim": 2, "shape": {"type": "box", "min": [0.0, 0.0], "max": [2.0, 2.0]}}
SQUARE_POLY = {
    "dim": 2,
    "shape": {"type": "polygon", "vertices": [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]},
}
L_POLY = {
    "dim": 2,
    "shape": {
        "type": "polygon",
        "vertices": [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]],
    },
}
UNION = {
    "dim": 2,
    "shape": {
        "type": "union_of_balls",
        "balls": [{"center": [0.0, 0.0], "radius": 1.0}, {"center": [1.5, 0.0], "radius": 1.0}],
    },
}


def test_disk_and_ball_clearance():
    c = ref.clearance(DISK, [[0.0, 0.0], [0.6, 0.0], [0.0, -0.9], [2.0, 0.0]])
    assert c == pytest.approx([1.0, 0.4, 0.1, 0.0])
    ball3 = {"dim": 3, "shape": {"type": "ball", "center": [1.0, 0.0, 0.0], "radius": 2.0}}
    assert ref.clearance(ball3, [1.0, 1.0, 1.0])[0] == pytest.approx(2.0 - math.sqrt(2.0))


def test_polygon_matches_box_on_a_square():
    rng = np.random.default_rng(3)
    p = rng.uniform(-0.5, 2.5, size=(500, 2))
    assert ref.clearance(SQUARE_POLY, p) == pytest.approx(ref.clearance(SQUARE_BOX, p))
    assert ref.signed_depth(SQUARE_POLY, p) == pytest.approx(ref.signed_depth(SQUARE_BOX, p))


def test_l_polygon_crossing_and_edges():
    # the missing quadrant is outside, the reentrant corner is at the origin
    assert ref.clearance(L_POLY, [[0.5, 0.5]])[0] == 0.0
    assert ref.clearance(L_POLY, [[-0.5, -0.5]])[0] == pytest.approx(0.5)
    assert ref.clearance(L_POLY, [[0.5, -0.2]])[0] == pytest.approx(0.2)
    assert ref.signed_depth(L_POLY, [[0.5, 0.3]])[0] == pytest.approx(-0.3)


def test_union_clearance_and_enclosing_radius():
    assert ref.clearance(UNION, [[0.0, 0.0], [1.5, 0.5], [3.0, 0.0]]) == pytest.approx(
        [1.0, 0.5, 0.0]
    )
    assert ref.enclosing_radius(UNION, [0.0, 0.0]) == pytest.approx(2.5)
    assert ref.inradius_upper(UNION) == 1.0


def test_inradius_upper_bounds_the_l_polygon():
    # the largest disk touches the two outer edges and the reentrant corner
    r = ref.inradius_upper(L_POLY)
    assert 2.0 - math.sqrt(2.0) <= r <= 2.0 - math.sqrt(2.0) + 0.01


def test_polyline_clearance_is_a_lower_bound():
    # on a chord of the unit disk the clearance is smallest at the ends
    c = ref.polyline_clearance(DISK, [[-0.5, 0.5], [0.5, 0.5]], 1e-3)
    exact = 1.0 - math.sqrt(0.5)
    assert exact - 1e-3 <= c <= exact


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.9])
def test_disk_exact_from_center(rho):
    assert ref.disk_exact([0.0, 0.0], [rho, 0.0], [0.0, 0.0], 1.0) == pytest.approx(
        ref.ball_from_center(2, 1.0, rho), rel=1e-12
    )


def test_disk_exact_is_invariant_under_rotation_and_scaling():
    a = ref.disk_exact([0.1, 0.2], [-0.4, 0.5], [0.0, 0.0], 1.0)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    b = ref.disk_exact(rot @ [0.1, 0.2] * 3 + 1, rot @ [-0.4, 0.5] * 3 + 1, [1.0, 1.0], 3.0)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("rho", [0.0, 0.2, 0.75])
def test_ball_exact_from_center(dim, rho):
    y = np.zeros(dim)
    y[-1] = 2.0 * rho
    got = ref.ball_exact(np.zeros(dim), y, np.zeros(dim), 2.0)
    assert got == pytest.approx(ref.ball_from_center(dim, 2.0, 2.0 * rho), rel=1e-10)


def test_ball_exact_matches_disk_formula_in_the_plane():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x, y = rng.uniform(-0.65, 0.65, size=(2, 2))
        got = ref.ball_exact(x, y, [0.0, 0.0], 1.0)
        assert got == pytest.approx(ref.disk_exact(x, y, [0.0, 0.0], 1.0), rel=1e-10)


def test_ball_exact_is_the_largest_sampled_kernel_ratio_in_3d():
    rng = np.random.default_rng(11)
    zeta = rng.standard_normal((20000, 3))
    zeta /= np.linalg.norm(zeta, axis=1, keepdims=True)
    for _ in range(10):
        x, y = rng.uniform(-0.5, 0.5, size=(2, 3))
        exact = ref.ball_exact(x, y, np.zeros(3), 1.0)
        sampled = math.exp(np.abs(ref.poisson_log_ratio(x, y, zeta, np.zeros(3), 1.0)).max())
        assert sampled <= exact * (1 + 1e-12)
        assert sampled >= exact * (1 - 1e-2)


def test_overflow_entropy_is_where_the_float_power_overflows():
    for dim in (2, 3):
        e = workloads.overflow_entropy(dim)
        2.0 ** (2.0 * dim * (e - 1e-9 + 1.0))
        with pytest.raises(OverflowError):
            2.0 ** (2.0 * dim * (e + 1.0))


def test_may_overflow_flags_only_segments_that_graze_the_boundary_inside():
    union = workloads.DOMAINS["union3"]
    for x, y in workloads.OVERFLOW_PAIRS:
        assert workloads.may_overflow(union, np.asarray(x), np.asarray(y))
    # through the middle of the necks, and clearly out of the domain
    assert not workloads.may_overflow(union, np.array([-0.8, 0.0]), np.array([0.8, 0.0]))
    assert not workloads.may_overflow(union, np.array([-0.8, -0.4]), np.array([0.8, -0.4]))
    assert not workloads.may_overflow(DISK, np.array([-0.95, 0.0]), np.array([0.95, 0.0]))


def test_inputs_follow_the_seed(tmp_path):
    def pairs(seed, name):
        d = tmp_path / name
        d.mkdir()
        return [op.argv[3] for op in workloads.build("pair-sandwich", seed, str(d))]

    first = pairs(1, "a")
    assert len(first) == 200
    assert pairs(1, "b") == first
    same = [a for a, b in zip(first, pairs(2, "c")) if a == b]
    assert len(same) == len(workloads.OVERFLOW_PAIRS)  # only the fixed pairs
