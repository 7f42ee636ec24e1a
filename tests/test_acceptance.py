"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned in the assertions themselves.
"""

import itertools
import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from harnack.cli import main
from harnack.entropy import (
    build_ball_chain,
    eac_estimate,
    eac_harnack_bound,
    eac_hull_bound,
)
from harnack.exact import ball_harnack_from_center, ball_harnack_two_points
from harnack.geometry import Ball, Box, Lattice
from harnack.separation import (
    chain_bound,
    pair_bound_from_q,
    pair_separation,
    set_harnack_bound,
    set_separation,
)

UNIT_DISK = Ball(np.zeros(2), 1.0)
UNIT_BOX = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def passed(num, text):
    print(f"ACCEPTANCE {num} [{text}]: PASS")


def test_criterion_1_exact_ball_formula():
    t0 = time.perf_counter()
    assert ball_harnack_from_center(2, 1.0, 0.5) == pytest.approx(3.0, rel=1e-12)
    assert ball_harnack_from_center(3, 1.0, 0.5) == pytest.approx(6.0, rel=1e-12)
    assert ball_harnack_from_center(2, 2.0, 1.0) == pytest.approx(3.0, rel=1e-12)
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        radius = float(rng.uniform(0.1, 10.0))
        a, b = np.sort(rng.uniform(0.0, radius * 0.999, size=2))
        if a == b:
            continue
        assert ball_harnack_from_center(d, radius, a) < ball_harnack_from_center(d, radius, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    passed(1, "exact ball formula + monotonicity")


def test_criterion_2_disk_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 100:
        y = rng.uniform(-1, 1, size=2)
        rho = float(np.linalg.norm(y))
        if rho >= 0.999:
            continue
        got = ball_harnack_two_points((0.0, 0.0), y, UNIT_DISK.center, UNIT_DISK.radius)
        want = ball_harnack_from_center(2, 1.0, rho)
        assert got == pytest.approx(want, rel=1e-9)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    passed(2, "disk oracle normalization cross-check")


def test_criterion_3_soundness_sandwich_on_disks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    lattice = Lattice(UNIT_DISK, 0.1)
    checked = 0
    while checked < 200:
        x, y = rng.uniform(-0.9, 0.9, size=(2, 2))
        if np.linalg.norm(x) > 0.9 or np.linalg.norm(y) > 0.9:
            continue
        q = pair_separation(UNIT_DISK, x, y)
        if q >= 0.95:
            continue
        exact = ball_harnack_two_points(x, y, UNIT_DISK.center, UNIT_DISK.radius)
        rho = float(np.linalg.norm(x - y))
        lower = max(ball_harnack_from_center(2, UNIT_DISK.enclosing_radius(c), rho) for c in (x, y))
        assert lower <= exact + 1e-9

        uppers = [
            *pair_bound_from_q(q, 2),
            chain_bound(UNIT_DISK, [x, np.zeros(2), y])[1],
        ]
        eac = eac_hull_bound(UNIT_DISK, np.vstack([x, y]), 1e-3)
        if math.isfinite(eac):
            uppers.append(eac_harnack_bound(eac, 2)[0])
        sep_val = set_separation(lattice, x, y[None, :], hops=2).value
        if sep_val < 1.0:
            uppers.append(set_harnack_bound(sep_val, 2, 2))
        for u in uppers:
            assert exact <= u + 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    passed(3, f"soundness sandwich, 200 disk pairs in {elapsed:.1f}s")


def test_criterion_4_bound_algebra():
    for d in range(2, 7):
        for q in np.arange(0.0, 1.0, 0.01):
            stated, proof_sharp = pair_bound_from_q(q, d)
            assert proof_sharp <= stated
    for d in range(2, 7):
        for eac in np.linspace(0.0, 10.0, 201):
            sharp, rounded = eac_harnack_bound(float(eac), d)
            assert sharp <= rounded
    passed(4, "bound algebra, exact inequalities")


def test_criterion_5_worked_numbers():
    assert pair_bound_from_q(2.0 / 3.0, 2)[0] == pytest.approx(144.0, rel=1e-12)
    sharp, rounded = eac_harnack_bound(2.0, 2)
    assert sharp == pytest.approx(243.0, rel=1e-12)
    assert rounded == pytest.approx(4096.0, rel=1e-12)
    assert set_harnack_bound(0.5, 2, 2) == pytest.approx(1024.0, rel=1e-12)
    passed(5, "worked numbers 144 / (243, 4096) / 1024")


def test_criterion_6_eac_estimator_accuracy():
    t0 = time.perf_counter()
    est = eac_estimate(Lattice(UNIT_DISK, 0.02), np.array([[-0.5, 0.0], [0.5, 0.0]]))
    elapsed = time.perf_counter() - t0
    assert 2.0 <= est.value <= 2.1
    assert elapsed < 10.0
    passed(6, f"eac estimator value {est.value:.4f} in [2.0, 2.1] in {elapsed:.1f}s")


def test_criterion_7_ball_chain_certificates():
    rng = np.random.default_rng(107)
    for trial in range(50):
        if trial % 2 == 0:
            center = rng.uniform(-1, 1, size=2)
            domain = Ball(center, float(rng.uniform(0.6, 1.5)))
        else:
            lo = rng.uniform(-2, 0, size=2)
            domain = Box(lo, lo + rng.uniform(1.0, 2.0, size=2))
        pts = []
        while len(pts) < 2:
            lo_d, hi_d = domain.bounding_box()
            p = lo_d + rng.random(2) * (hi_d - lo_d)
            if domain.clearance(p)[0] >= 0.15 and not any(
                np.array_equal(p, q) for q in pts
            ):
                pts.append(p)
        x, y = pts
        est = eac_estimate(Lattice(domain, 0.15), np.vstack([x, y]))
        assert math.isfinite(est.value)
        budget = est.value * 1.01 + 1e-9
        chain = build_ball_chain(domain, x, y, budget, est)
        gaps = np.linalg.norm(np.diff(chain.centers, axis=0), axis=1)
        assert np.all(gaps <= chain.radius / 2 + 1e-12)  # (B1)
        assert chain.hops <= 2 * budget  # (B2)
        assert np.all(domain.clearance(chain.centers) >= chain.radius - 1e-12)
        assert np.array_equal(chain.centers[0], x)
        assert np.array_equal(chain.centers[-1], y)
    passed(7, "ball-chain (B1)/(B2) certificates, 50 random configs")


def test_criterion_8_minimax_oracle_equivalence():
    t0 = time.perf_counter()
    lattice = Lattice(UNIT_BOX, 0.2)
    assert lattice.nodes.shape[0] == 81
    start = np.array([-0.7, -0.3])
    targets = np.array([[0.7, 0.5], [0.1, -0.7], [0.5, 0.1]])
    pts = np.vstack([lattice.nodes, start[None, :], targets])
    n = pts.shape[0]
    cost = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            c = pair_separation(UNIT_BOX, pts[i], pts[j])
            # the solver links grid nodes at most 4 steps apart
            far = max(i, j) < 81 and np.linalg.norm(pts[i] - pts[j]) > 4 * lattice.step
            cost[i, j] = c if c < 1.0 and not far else np.inf
        cost[i, i] = 0.0
    i0 = 81
    for hops in (1, 2, 3):
        per_target = set_separation(lattice, start, targets, hops).per_target
        for t in range(targets.shape[0]):
            it = 81 + 1 + t
            best = math.inf
            for mids in itertools.product(range(n), repeat=hops - 1):
                seq = [i0, *mids, it]
                val = max(cost[a][b] for a, b in zip(seq[:-1], seq[1:]))
                best = min(best, val)
            assert per_target[t][0] == best
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    passed(8, f"minimax solver equals exhaustive enumeration in {elapsed:.1f}s")


def test_criterion_9_monotonicity_properties():
    start = np.array([-0.6, 0.0])
    targets = np.array([[0.5, 0.3]])
    vals = [
        set_separation(Lattice(UNIT_DISK, 0.1), start, targets, l).value
        for l in (1, 2, 3, 4)
    ]
    assert all(b <= a for a, b in zip(vals, vals[1:]))

    levels = np.geomspace(0.05, 0.5, 12)
    pair = np.array([[-0.5, 0.0], [0.5, 0.0]])
    small = eac_estimate(Lattice(UNIT_BOX, 0.1), pair, levels)
    big = eac_estimate(Lattice(UNIT_BOX, 0.1), np.vstack([pair, [[0.0, 0.6]]]), levels)
    assert small.value <= big.value

    qs = np.linspace(0.0, 0.99, 100)
    for d in (2, 3, 4):
        pb = [pair_bound_from_q(q, d)[0] for q in qs]
        sb = [set_harnack_bound(q, 2, d) for q in qs]
        assert all(b > a for a, b in zip(pb, pb[1:]))
        assert all(b > a for a, b in zip(sb, sb[1:]))
    passed(9, "hop/set/q monotonicity properties")


def test_criterion_10_cli_determinism_and_schema(tmp_path, capsys):
    disk = tmp_path / "disk.json"
    disk.write_text(json.dumps({"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 1}}))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[-0.5, 0], [0.5, 0]]}))
    with open(SCHEMAS / "bound_report.schema.json") as f:
        bound_schema = json.load(f)
    with open(SCHEMAS / "set_report.schema.json") as f:
        set_schema = json.load(f)

    pairs = ["-0.4,0;0.4,0", "0,0;0.5,0", "-0.3,0.6;0.2,-0.5", "0.1,0.1;0.1,0.1"]
    for pair in pairs:
        argv = ["sandwich", "--domain", str(disk), f"--pair={pair}"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        jsonschema.validate(report, bound_schema)
        assert report["verdict"] == "consistent"

    for argv in (
        ["set", "eac", "--domain", str(disk), "--set", str(pts), "--grid", "0.1"],
        ["set", "sep", "--domain", str(disk), "--set", str(pts), "--start=-0.4,0",
         "--hops", "2", "--grid", "0.1"],
    ):
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        jsonschema.validate(json.loads(out1), set_schema)
    passed(10, "CLI determinism, schema validity, consistent verdicts")
