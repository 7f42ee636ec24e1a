import math

import mpmath
import numpy as np
import pytest

from harnack.exact import (
    ball_harnack_from_center,
    ball_harnack_two_points,
    poisson_witness_lower_bound,
)
from harnack.geometry import Ball, Box, Polygon2D, UnionOfBalls

UNIT_DISK = Ball(np.zeros(2), 1.0)
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
ORIGIN = (0.0, 0.0)


def _enclosing_ball_value(domain, x, y):
    """The larger exact value of the smallest balls enclosing the domain
    centred at x and at y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rho = float(np.linalg.norm(x - y))
    return max(ball_harnack_from_center(domain.dim, domain.enclosing_radius(c), rho) for c in (x, y))


class TestBallFormula:
    def test_coincident(self):
        assert ball_harnack_from_center(2, 1.0, 0.0) == 1.0

    def test_d3_half_radius(self):
        assert ball_harnack_from_center(3, 1.0, 0.5) == pytest.approx(6.0, rel=1e-12)

    def test_d2_radius_two(self):
        assert ball_harnack_from_center(2, 2.0, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            r = float(rng.uniform(0.1, 5.0))
            r1, r2 = np.sort(rng.uniform(0.0, r, size=2) * 0.999)
            if r1 == r2:
                continue
            assert ball_harnack_from_center(d, r, r1) < ball_harnack_from_center(d, r, r2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="interior"):
            ball_harnack_from_center(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            ball_harnack_from_center(2, -1.0, 0.0)

    def test_extreme_dimension_and_radius(self):
        assert ball_harnack_from_center(400, 1e300, 0.0) == 1.0
        want = 1.1 / 0.9**399
        assert ball_harnack_from_center(400, 1e300, 1e299) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError, match="float range"):
            ball_harnack_from_center(400, 1.0, 0.9)


class TestDiskOracle:
    def test_coincident(self):
        assert ball_harnack_two_points((0.2, 0.1), (0.2, 0.1), ORIGIN, 1.0) == 1.0

    def test_center_to_half(self):
        assert ball_harnack_two_points((0, 0), (0.5, 0), ORIGIN, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_symmetric_pair_on_diameter(self):
        v = ball_harnack_two_points((-0.4, 0), (0.4, 0), ORIGIN, 1.0)
        assert v == pytest.approx(49.0 / 9.0, rel=1e-12)

    def test_matches_ball_formula_from_center(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = rng.uniform(-1, 1, size=2)
            if np.linalg.norm(y) >= 0.999:
                continue
            got = ball_harnack_two_points((0, 0), y, ORIGIN, 1.0)
            want = ball_harnack_from_center(2, 1.0, float(np.linalg.norm(y)))
            assert got == pytest.approx(want, rel=1e-9)

    def test_rescaling_invariance(self):
        a, b = (0.1, 0.2), (-0.3, 0.4)
        v1 = ball_harnack_two_points(a, b, ORIGIN, 1.0)
        v2 = ball_harnack_two_points(
            (2 + 0.5 * a[0], -1 + 0.5 * a[1]),
            (2 + 0.5 * b[0], -1 + 0.5 * b[1]),
            center=(2, -1),
            radius=0.5,
        )
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(-0.7, 0.7, size=(2, 2))
            assert ball_harnack_two_points(a, b, ORIGIN, 1.0) == pytest.approx(
                ball_harnack_two_points(b, a, ORIGIN, 1.0), rel=1e-12
            )

    def test_multiplicative_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b, c = rng.uniform(-0.7, 0.7, size=(3, 2))
            dab = ball_harnack_two_points(a, b, ORIGIN, 1.0)
            dac = ball_harnack_two_points(a, c, ORIGIN, 1.0)
            dcb = ball_harnack_two_points(c, b, ORIGIN, 1.0)
            assert dab <= dac * dcb * (1 + 1e-9)

    def test_rejects_exterior_and_3d(self):
        with pytest.raises(ValueError):
            ball_harnack_two_points((0, 0), (1, 0), ORIGIN, 1.0)
        with pytest.raises(ValueError, match="one dimension"):
            ball_harnack_two_points((0, 0, 0), (0.5, 0, 0), ORIGIN, 1.0)


class TestPoissonWitness:
    def test_coincident_gives_one(self):
        assert poisson_witness_lower_bound(UNIT_BOX, (0.1, 0.1), (0.1, 0.1)).value == 1.0

    def test_disk_recovers_exact_value(self):
        # the domain ball is one of the candidate balls, so its exact value
        # is attained
        cert = poisson_witness_lower_bound(UNIT_DISK, (0, 0), (0.5, 0))
        assert cert.value == pytest.approx(3.0, rel=1e-9)

    def test_box_dominates_enclosing_ball_bound(self):
        for pair in [((0, 0), (0.5, 0)), ((-0.3, 0.2), (0.4, -0.5))]:
            poi = poisson_witness_lower_bound(UNIT_BOX, *pair).value
            enc = _enclosing_ball_value(UNIT_BOX, *pair)
            assert poi >= enc - 1e-6

    def test_lower_bounds_below_disk_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a, b = rng.uniform(-0.6, 0.6, size=(2, 2))
            exact = ball_harnack_two_points(a, b, ORIGIN, 1.0)
            assert _enclosing_ball_value(UNIT_DISK, a, b) <= exact + 1e-9
            assert poisson_witness_lower_bound(UNIT_DISK, a, b).value <= exact + 1e-9

    def test_symmetric_in_arguments(self):
        a, b = (0.2, -0.3), (-0.5, 0.1)
        v1 = poisson_witness_lower_bound(UNIT_BOX, a, b).value
        v2 = poisson_witness_lower_bound(UNIT_BOX, b, a).value
        assert v1 == pytest.approx(v2, rel=1e-12)

    @pytest.mark.parametrize(
        "x,y", [((1.5, 0), (0, 0)), ((0, 0), (1.0, 0))], ids=["x_outside", "y_on_boundary"]
    )
    def test_non_interior_points_rejected(self, x, y):
        with pytest.raises(ValueError, match="interior"):
            poisson_witness_lower_bound(UNIT_BOX, x, y)

    def test_3d_sampling(self):
        cube = Box(-np.ones(3), np.ones(3))
        cert = poisson_witness_lower_bound(cube, (0, 0, 0), (0.5, 0, 0))
        assert cert.value >= _enclosing_ball_value(cube, (0, 0, 0), (0.5, 0, 0)) - 1e-6


def _mp_ball_harnack(x, y, center, radius, dps=40):
    """Largest Poisson-kernel ratio between x and y over a great circle of
    Ball(center, radius) through the plane of the center, x and y: a float
    scan of 720 points, then a golden-section refinement in mpmath."""
    with mpmath.workdps(dps):
        c = [mpmath.mpf(float(t)) for t in center]
        u = [mpmath.mpf(float(p)) - q for p, q in zip(x, c)]
        v = [mpmath.mpf(float(p)) - q for p, q in zip(y, c)]
        R = mpmath.mpf(float(radius))
        d = len(c)

        def dot(a, b):
            return mpmath.fsum(s * t for s, t in zip(a, b))

        def unit(a):
            n = mpmath.sqrt(dot(a, a))
            return [t / n for t in a]

        def minus_along(a, e):
            k = dot(a, e)
            return [s - k * t for s, t in zip(a, e)]

        far = u if dot(u, u) >= dot(v, v) else v
        e1 = unit(far) if dot(far, far) > 0 else [mpmath.mpf(i == 0) for i in range(d)]
        w = minus_along(v if far is u else u, e1)
        if dot(w, w) < mpmath.mpf(10) ** (-2 * dps + 10):
            # collinear with the center: any great circle through e1 will do
            axis = int(np.argmin([abs(float(t)) for t in e1]))
            w = minus_along([mpmath.mpf(i == axis) for i in range(d)], e1)
        e2 = unit(w)
        base = mpmath.log(R * R - dot(u, u)) - mpmath.log(R * R - dot(v, v))

        def log_ratio(theta):
            z = [R * (mpmath.cos(theta) * a + mpmath.sin(theta) * b) for a, b in zip(e1, e2)]
            du = [s - t for s, t in zip(z, u)]
            dv = [s - t for s, t in zip(z, v)]
            return base - d * mpmath.log(dot(du, du)) / 2 + d * mpmath.log(dot(dv, dv)) / 2

        theta = 2 * np.pi * np.arange(720) / 720
        f1, f2, fu, fv = (np.array(a, dtype=float) for a in (e1, e2, u, v))
        z = float(R) * (np.outer(np.cos(theta), f1) + np.outer(np.sin(theta), f2))
        scan = float(base) - d * np.log(np.linalg.norm(z - fu, axis=1))
        scan += d * np.log(np.linalg.norm(z - fv, axis=1))
        step = mpmath.mpf(2 * math.pi / 720)
        best = mpmath.mpf(0)
        gold = (mpmath.sqrt(5) - 1) / 2
        for sign in (1, -1):
            k = int(np.argmax(sign * scan))
            lo, hi = step * (k - 1), step * (k + 1)
            for _ in range(90):
                m1, m2 = hi - gold * (hi - lo), lo + gold * (hi - lo)
                if sign * log_ratio(m1) >= sign * log_ratio(m2):
                    hi = m2
                else:
                    lo = m1
            best = max(best, sign * log_ratio((lo + hi) / 2))
        return float(mpmath.exp(best))


def _mp_poisson_ratio(x, y, zeta, center, radius):
    """The larger Poisson-kernel ratio of x and y, in mpmath, at zeta moved
    radially onto the sphere."""
    with mpmath.workdps(40):
        c = [mpmath.mpf(float(t)) for t in center]
        u, v, z = ([mpmath.mpf(float(p)) - q for p, q in zip(a, c)] for a in (x, y, zeta))
        R = mpmath.mpf(float(radius))
        nz = mpmath.sqrt(mpmath.fsum(t * t for t in z))
        z = [R * t / nz for t in z]

        def sq(a):
            return mpmath.fsum(t * t for t in a)

        ratio = (R * R - sq(u)) / (R * R - sq(v)) * (
            sq([s - t for s, t in zip(z, v)]) / sq([s - t for s, t in zip(z, u)])
        ) ** (mpmath.mpf(len(c)) / 2)
        return float(max(ratio, 1 / ratio))


def _random_pair(rng, dim, reach=0.95):
    """Two points of the unit d-ball, uniform in direction, at most reach
    from the center."""
    out = []
    for _ in range(2):
        w = rng.standard_normal(dim)
        out.append(w / np.linalg.norm(w) * rng.uniform(0.0, reach))
    return out


class TestBallOracle:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_the_poisson_ratio_maximised_in_mpmath(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(6):
            center = rng.uniform(-2.0, 2.0, dim)
            radius = float(rng.uniform(0.3, 3.0))
            u, v = _random_pair(rng, dim)
            x, y = center + radius * u, center + radius * v
            want = _mp_ball_harnack(x, y, center, radius)
            assert ball_harnack_two_points(x, y, center, radius) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_ball_formula_from_center(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            center = rng.uniform(-1.0, 1.0, dim)
            radius = float(rng.uniform(0.1, 5.0))
            y = center + radius * _random_pair(rng, dim, 0.99)[0]
            want = ball_harnack_from_center(dim, radius, float(np.linalg.norm(y - center)))
            for a, b in ((center, y), (y, center)):
                assert ball_harnack_two_points(a, b, center, radius) == pytest.approx(want, rel=1e-12)

    def test_disk_case_is_exp_of_the_poincare_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = (complex(*p) for p in _random_pair(rng, 2, 0.99))
            t = abs(a - b) / abs(1.0 - a.conjugate() * b)
            want = (1.0 + t) / (1.0 - t)
            got = ball_harnack_two_points([a.real, a.imag], [b.real, b.imag], [0.0, 0.0], 1.0)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_symmetric(self, dim):
        rng = np.random.default_rng(60 + dim)
        center = np.zeros(dim)
        for _ in range(50):
            x, y = _random_pair(rng, dim)
            assert ball_harnack_two_points(x, y, center, 1.0) == pytest.approx(
                ball_harnack_two_points(y, x, center, 1.0), rel=1e-13
            )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_invariant_under_rotation_scaling_and_translation(self, dim):
        rng = np.random.default_rng(70 + dim)
        for _ in range(30):
            x, y = _random_pair(rng, dim)
            rot, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            scale = float(rng.uniform(0.01, 100.0))
            shift = rng.uniform(-10.0, 10.0, dim)
            moved = ball_harnack_two_points(
                shift + scale * rot @ x, shift + scale * rot @ y, shift, scale
            )
            want = ball_harnack_two_points(x, y, np.zeros(dim), 1.0)
            assert moved == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize(
        "s,t", [(0.3, 0.7), (-0.5, 0.5), (-0.2, 0.9), (0.0, -0.6), (0.8, 0.8)], ids=str
    )
    def test_collinear_with_the_center(self, dim, s, t):
        axis = np.ones(dim) / math.sqrt(dim)
        center = np.full(dim, 0.5)
        x, y = center + 2.0 * s * axis, center + 2.0 * t * axis
        got = ball_harnack_two_points(x, y, center, 2.0)
        assert got == pytest.approx(_mp_ball_harnack(x, y, center, 2.0), rel=1e-12)
        cert = poisson_witness_lower_bound(Ball(center, 2.0), x, y)
        zeta = np.asarray(cert.witness["zeta"])
        assert cert.value == pytest.approx(got, rel=1e-13)
        assert cert.value <= got
        if s != t:
            # the pole sits where the line through the center meets the sphere
            assert abs(abs(float((zeta - center) @ axis)) - 2.0) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_coincident_points(self, dim):
        p = np.linspace(-0.3, 0.4, dim)
        assert ball_harnack_two_points(p, p, np.zeros(dim), 1.0) == 1.0
        assert ball_harnack_two_points(np.zeros(dim), np.zeros(dim), np.zeros(dim), 1.0) == 1.0
        cert = poisson_witness_lower_bound(Ball(np.zeros(dim), 1.0), p, p)
        assert cert.value == 1.0
        center, zeta = np.asarray(cert.witness["center"]), np.asarray(cert.witness["zeta"])
        assert np.linalg.norm(zeta - center) == pytest.approx(cert.witness["radius"], rel=1e-15)

    def test_rejections(self):
        with pytest.raises(ValueError, match="inside"):
            ball_harnack_two_points([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="dimension"):
            ball_harnack_two_points([0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="positive"):
            ball_harnack_two_points([0.0, 0.0], [0.1, 0.0], [0.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="float range"):
            ball_harnack_two_points(np.zeros(400), np.r_[0.9, np.zeros(399)], np.zeros(400), 1.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            ball_harnack_two_points([0.0, 0.0], [0.5, 0.0], [0.0, 0.0], radius)


WITNESS_DOMAINS = {
    "disk": Ball(np.array([0.2, -0.1]), 1.3),
    "ball3d": Ball(np.array([0.0, 0.1, -0.2]), 1.0),
    "ball4d": Ball(np.zeros(4), 2.0),
    "cube": Box(-np.ones(3), np.ones(3)),
    "L": Polygon2D(np.array([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]], float)),
    "union3": UnionOfBalls(np.array([[-0.8, 0.0], [0.0, 0.2], [0.8, 0.0]]), np.full(3, 0.5)),
}


def _interior_pairs(domain, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = domain.bounding_box()
    pts = []
    while len(pts) < 2 * n:
        p = rng.uniform(lo, hi)
        if domain.clearance(p)[0] > 0.02:
            pts.append(p)
    return list(zip(pts[::2], pts[1::2]))


class TestPoissonWitnessCertificate:
    @pytest.mark.parametrize("name", sorted(WITNESS_DOMAINS))
    def test_witness_is_on_its_sphere_and_reevaluates_to_the_value(self, name):
        domain = WITNESS_DOMAINS[name]
        for x, y in _interior_pairs(domain, 8, 5):
            cert = poisson_witness_lower_bound(domain, x, y)
            w = cert.witness
            assert cert.method == "poisson_witness"
            assert sorted(w) == ["center", "radius", "zeta"]
            center, radius, zeta = np.asarray(w["center"]), w["radius"], np.asarray(w["zeta"])
            assert radius >= domain.enclosing_radius(center)
            assert np.linalg.norm(zeta - center) == pytest.approx(radius, rel=1e-14)
            assert _mp_poisson_ratio(x, y, zeta, center, radius) >= cert.value * (1 - 1e-13)
            assert cert.value <= ball_harnack_two_points(x, y, center, radius)

    @pytest.mark.parametrize("name", sorted(WITNESS_DOMAINS))
    def test_never_below_the_enclosing_ball_bound(self, name):
        domain = WITNESS_DOMAINS[name]
        for x, y in _interior_pairs(domain, 30, 6):
            enc = _enclosing_ball_value(domain, x, y)
            assert poisson_witness_lower_bound(domain, x, y).value >= enc * (1 - 1e-13)

    @pytest.mark.parametrize("name", ["disk", "ball3d", "ball4d"])
    def test_exact_on_a_ball_domain(self, name):
        domain = WITNESS_DOMAINS[name]
        for x, y in _interior_pairs(domain, 20, 7):
            exact = ball_harnack_two_points(x, y, domain.center, domain.radius)
            cert = poisson_witness_lower_bound(domain, x, y)
            assert cert.value <= exact
            assert cert.value == pytest.approx(exact, rel=1e-13)
