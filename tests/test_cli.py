import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harnack import cli, entropy, geometry
from harnack.cli import main
from harnack.entropy import EacEstimate, PairRecord, build_ball_chain
from harnack.exact import ball_harnack_from_center

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"
# 8 points in the three-ball union at clearance 0.02-0.06
NEAR_BOUNDARY = np.array(
    [[-0.603, -0.415], [-0.083, 0.658], [1.035, -0.405], [-0.334, 0.501],
     [-1.19, -0.21], [1.217, 0.178], [-0.934, 0.436], [0.867, -0.475]]
)


def schema(name):
    with open(SCHEMAS / name) as f:
        return json.load(f)


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 1}}))
    return str(path)


@pytest.fixture
def box3d_file(tmp_path):
    path = tmp_path / "box4.json"
    path.write_text(
        json.dumps(
            {"dim": 4, "shape": {"type": "box", "min": [-1, -1, -1, -1], "max": [1, 1, 1, 1]}}
        )
    )
    return str(path)


@pytest.fixture
def union3_file(tmp_path):
    path = tmp_path / "union3.json"
    balls = [{"center": c, "radius": 0.5} for c in ([-0.8, 0], [0, 0.2], [0.8, 0])]
    path.write_text(json.dumps({"dim": 2, "shape": {"type": "union_of_balls", "balls": balls}}))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": [[-0.5, 0], [0.5, 0]]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestBall:
    @pytest.mark.parametrize(
        "dim,radius,rho,expect",
        [(2, 1, 0.5, "3"), (3, 1, 0.5, "6"), (2, 1, 0, "1")],
    )
    def test_values(self, capsys, dim, radius, rho, expect):
        code, out = run(capsys, ["ball", "--dim", str(dim), "--radius", str(radius), "--rho", str(rho)])
        assert code == 0
        assert out.strip() == expect

    def test_invalid_arguments(self, capsys):
        assert main(["ball", "--dim", "2", "--radius", "1", "--rho", "2"]) == 2

    @pytest.mark.parametrize("radius,rho", [("nan", "0"), ("inf", "0.5")])
    def test_radius_must_be_positive_and_finite(self, capsys, radius, rho):
        assert main(["ball", "--dim", "2", "--radius", radius, "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radius must be positive and finite" in captured.err

    def test_extreme_radius_at_the_center(self, capsys):
        code, out = run(capsys, ["ball", "--dim", "400", "--radius", "1e300", "--rho", "0"])
        assert code == 0
        assert out.strip() == "1"

    def test_value_beyond_the_float_range_exits_2(self, capsys):
        assert main(["ball", "--dim", "400", "--radius", "1", "--rho", "0.9"]) == 2
        assert "exceeds the float range" in capsys.readouterr().err


class TestSandwich:
    def test_disk_report(self, capsys, disk_file):
        code, out = run(capsys, ["sandwich", "--domain", disk_file, "--pair=-0.4,0;0.4,0"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("bound_report.schema.json"))
        assert report["verdict"] == "consistent"
        assert report["exact"] == pytest.approx(49 / 9, rel=1e-9)
        assert report["uppers"]["pair_stated"] == pytest.approx(144.0)
        assert report["uppers"]["pair_proof_sharp"] == pytest.approx(121.0)
        assert report["lower"]["value"] >= 1.0

    def test_coincident_pair(self, capsys, disk_file):
        code, out = run(capsys, ["sandwich", "--domain", disk_file, "--pair=0.2,0.1;0.2,0.1"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("bound_report.schema.json"))
        assert report["exact"] == 1.0
        assert report["lower"]["value"] == 1.0
        assert report["lower"]["method"] == "poisson_witness"
        assert sorted(report["lower"]["witness"]) == ["center", "radius", "zeta"]
        assert all(v >= 1.0 for v in report["uppers"].values())

    def test_3d_ball_report_has_the_exact_value(self, capsys, tmp_path):
        ball = tmp_path / "ball3.json"
        shape = {"type": "ball", "center": [0, 0, 0], "radius": 1}
        ball.write_text(json.dumps({"dim": 3, "shape": shape}))
        argv = ["sandwich", "--domain", str(ball), "--pair=-0.4,0,0;0.4,0,0", "--grid", "0.25"]
        code, out = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("bound_report.schema.json"))
        # s = (1.4 / 0.6)^2 from the disk through the pair, and a = b
        assert report["exact"] == pytest.approx((7 / 3) ** 3, rel=1e-11)
        assert report["lower"]["value"] == report["exact"]
        assert "lower_candidates" not in report
        assert "boundary_samples" not in report["parameters"]

    def test_touching_pair_is_data_not_failure(self, capsys, disk_file):
        code, out = run(capsys, ["sandwich", "--domain", disk_file, "--pair=-0.5,0;0.5,0", "--hops", "2"])
        assert code == 0
        report = json.loads(out)
        assert "pair_stated" in report["inapplicable"]
        assert report["uppers"]["chain_stated"] > 1.0

    def test_determinism(self, capsys, disk_file):
        _, out1 = run(capsys, ["sandwich", "--domain", disk_file, "--pair=-0.3,0.2;0.4,0.1"])
        _, out2 = run(capsys, ["sandwich", "--domain", disk_file, "--pair=-0.3,0.2;0.4,0.1"])
        assert out1 == out2

    def test_overflowing_entropy_bound_is_inapplicable(self, capsys, union3_file):
        # the segmental hull entropy of this pair is about 300: 2^(4(eac+1))
        # is beyond the float range
        code, out = run(capsys, ["sandwich", "--domain", union3_file, "--pair=-0.118,0.399;1.098,0.329"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("bound_report.schema.json"))
        assert report["inapplicable"]["eac_rounded"] == "bound overflows the float range"
        assert "eac_rounded" not in report["uppers"]
        assert report["verdict"] == "consistent"

    def test_bad_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["sandwich", "--domain", str(bad), "--pair=0,0;0.1,0"]) == 2

    def test_exterior_point_exits_2(self, capsys, disk_file):
        assert main(["sandwich", "--domain", disk_file, "--pair=0,0;2,0"]) == 2

    @pytest.mark.parametrize("grid", ["0", "-0.1"])
    def test_non_positive_grid_exits_2(self, capsys, disk_file, grid):
        assert main(["sandwich", "--domain", disk_file, "--pair=0,0;0.1,0", "--grid", grid]) == 2
        assert "grid step must be positive and finite" in capsys.readouterr().err

    def test_4d_ball_lists_the_grid_bounds_as_inapplicable(self, capsys, tmp_path):
        ball = tmp_path / "ball4.json"
        ball.write_text(json.dumps({"dim": 4, "shape": {"type": "ball", "center": [0] * 4, "radius": 1}}))
        code, out = run(capsys, ["sandwich", "--domain", str(ball), "--pair=0.1,0,0,0;-0.3,0.2,0,0"])
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("bound_report.schema.json"))
        for name in ("set_hop", "chain_stated", "chain_proof_sharp"):
            assert report["inapplicable"][name] == "grid solver refuses d=4 > 3"
        assert sorted(report["uppers"]) == ["eac_rounded", "eac_sharp", "pair_proof_sharp", "pair_stated"]
        assert report["lower"]["value"] <= report["exact"] <= min(report["uppers"].values())
        assert report["verdict"] == "consistent"

    def test_l_polygon_sandwich_evaluates_each_clearance_once(self, capsys, monkeypatch, tmp_path):
        poly = tmp_path / "L.json"
        vertices = [[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]]
        poly.write_text(json.dumps({"dim": 2, "shape": {"type": "polygon", "vertices": vertices}}))
        calls = []
        clearance = geometry.Polygon2D.clearance

        def counting(self, pts):
            calls.append(1)
            return clearance(self, pts)

        monkeypatch.setattr(geometry.Polygon2D, "clearance", counting)
        code, out = run(capsys, ["sandwich", "--domain", str(poly), "--pair=-0.5,-0.5;0.5,-0.6"])
        assert code == 0
        assert "chain_proof_sharp" in json.loads(out)["uppers"]
        # x and y for the pair separation 1, hull bound 1, lattice 1,
        # start and target of the solve 1, chain witness 1, lower bound 1
        assert len(calls) == 6

    def test_4d_ball_refuses_hops_below_one(self, capsys, tmp_path):
        ball = tmp_path / "ball4.json"
        ball.write_text(json.dumps({"dim": 4, "shape": {"type": "ball", "center": [0] * 4, "radius": 1}}))
        argv = ["sandwich", "--domain", str(ball), "--pair=0.1,0,0,0;-0.3,0.2,0,0", "--hops", "0"]
        assert main(argv) == 2
        assert "hops must be >= 1" in capsys.readouterr().err


class TestPointInputGate:
    """Each fault of point input exits 2 with its one message, whichever
    command meets it."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["set", "eac", "--set", "{empty}"], "point set must be nonempty"),
            (["set", "sep", "--set", "{pair}", "--start=0,0,0"],
             "dimension mismatch: point has d=3, domain has d=2"),
            (["set", "sep", "--set", "{pair}", "--start=2,0"],
             "point [2.0, 0.0] is not interior to the domain"),
            (["sandwich", "--pair=0,0;0,2"], "point [0.0, 2.0] is not interior to the domain"),
            (["sandwich", "--pair=0,0,0;0.1,0"], "dimension mismatch: point has d=3, domain has d=2"),
        ],
        ids=["empty-set", "start-dimension", "exterior-start", "exterior-pair", "pair-dimension"],
    )
    def test_refusal(self, capsys, tmp_path, disk_file, pair_file, argv, message):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"points": []}))
        argv = [a.format(empty=empty, pair=pair_file) for a in argv]
        assert main(argv[:2] + ["--domain", disk_file] + argv[2:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestParser:
    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        build = cli.build_parser

        def counting():
            count.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        yield count
        cli._parser.cache_clear()

    def test_built_once_per_process(self, capsys, builds, disk_file):
        for _ in range(3):
            assert main(["ball", "--dim", "2", "--radius", "1", "--rho", "0.5"]) == 0
            assert main(["sandwich", "--domain", disk_file, "--pair=-0.4,0;0.4,0"]) == 0
        assert main(["ball", "--dim", "2", "--radius", "1", "--rho", "2"]) == 2
        assert builds == [1]

    def test_no_state_carries_over(self, capsys, builds, disk_file):
        argv = ["sandwich", "--domain", disk_file, "--pair=-0.4,0;0.4,0"]
        first = json.loads(run(capsys, argv + ["--grid", "0.2", "--hops", "3"])[1])
        second = json.loads(run(capsys, argv)[1])
        assert first["parameters"]["grid_step"] == 0.2 and first["parameters"]["hops"] == 3
        assert second["parameters"]["grid_step"] == pytest.approx(math.sqrt(8.0) / 30.0, rel=1e-12)
        assert second["parameters"]["hops"] == 2
        assert builds == [1]


LIGHT_COMMANDS = """
import json, sys
import harnack, harnack.cli
loaded = {"import": "scipy" in sys.modules}
disk, pts, sandwich, sep, eac, svg = sys.argv[1:]
commands = {
    "ball": ["ball", "--dim", "3", "--radius", "1", "--rho", "0.5"],
    "sandwich": ["sandwich", "--domain", disk, "--pair=-0.4,0;0.4,0", "--out", sandwich],
    "set sep": ["set", "sep", "--domain", disk, "--set", pts, "--start=0,0", "--out", sep],
    "plot": ["plot", "--domain", disk, pts, sep, "--out", svg],
    "set eac": ["set", "eac", "--domain", disk, "--set", pts, "--grid", "0.1", "--out", eac],
}
for name, argv in commands.items():
    assert harnack.cli.main(argv) == 0, name
    loaded[name] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_only_the_entropy_estimator_loads_scipy(tmp_path, disk_file, pair_file):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = [str(tmp_path / name) for name in ("sandwich.json", "sep.json", "eac.json", "p.svg")]
    proc = subprocess.run(
        [sys.executable, "-c", LIGHT_COMMANDS, disk_file, pair_file, *outs],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"import": False, "ball": False, "sandwich": False, "set sep": False,
                      "plot": False, "set eac": True}


class TestNonFiniteDomain:
    @pytest.mark.parametrize(
        "shape,message",
        [
            ({"type": "ball", "center": [0, 0], "radius": math.inf}, "ball radius must be finite"),
            ({"type": "ball", "center": [math.nan, 0], "radius": 1}, "ball center must be finite"),
            ({"type": "box", "min": [-1, -1], "max": [1, math.inf]}, "box max must be finite"),
            (
                {"type": "polygon", "vertices": [[0, 0], [2, 0], [math.nan, 2], [0, 2]]},
                "polygon vertices must be finite",
            ),
            (
                {"type": "union_of_balls", "balls": [{"center": [0, 0], "radius": math.inf}]},
                "union ball radii must be finite",
            ),
        ],
        ids=["ball-radius", "ball-center", "box", "polygon", "union"],
    )
    def test_refused_with_the_field_named(self, capsys, tmp_path, shape, message):
        path = tmp_path / "dom.json"
        path.write_text(json.dumps({"dim": 2, "shape": shape}))  # writes Infinity / NaN
        assert main(["sandwich", "--domain", str(path), "--pair=0.1,0.1;0.2,0.1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestSet:
    def test_eac(self, capsys, disk_file, pair_file):
        code, out = run(
            capsys,
            ["set", "eac", "--domain", disk_file, "--set", pair_file, "--grid", "0.05"],
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("set_report.schema.json"))
        assert 2.0 <= report["eac"]["value"] <= 2.1
        assert report["eac_harnack_bound"]["sharp"] > 1.0

    def test_eac_in_a_long_thin_box(self, capsys, monkeypatch, tmp_path):
        # 84,003 lattice candidates; the straight segment at h/10 takes
        # 2^19 + 1 samples, cut into runs of SEGMENT_BATCH_SAMPLES
        dom, pts = tmp_path / "corridor.json", tmp_path / "ends.json"
        dom.write_text(json.dumps({"dim": 2, "shape": {"type": "box", "min": [0, 0], "max": [140, 0.01]}}))
        pts.write_text(json.dumps({"points": [[1, 0.005], [139, 0.005]]}))
        argv = ["set", "eac", "--domain", str(dom), "--set", str(pts), "--grid", "0.005"]
        code, out = run(capsys, argv)
        assert code == 0 and math.isfinite(json.loads(out)["eac"]["value"])
        # the same report as from one run of all the segment's samples
        monkeypatch.setattr(geometry, "SEGMENT_BATCH_SAMPLES", 1 << 20)
        assert run(capsys, argv) == (0, out)

    def test_eac_finite_for_points_near_the_boundary(self, capsys, union3_file, tmp_path):
        # every point within 1.25 grid steps of the boundary: the clearance
        # levels once started at the grid step and left this set null
        pts = tmp_path / "near.json"
        pts.write_text(json.dumps({"points": NEAR_BOUNDARY.tolist()}))
        argv = ["set", "eac", "--domain", union3_file, "--set", str(pts), "--grid", "0.05"]
        code, out = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("set_report.schema.json"))
        assert report["eac"]["value"] is not None
        per_pair = {
            tuple(rec["pair"]): PairRecord(
                rec["ratio"], rec["clearance"], np.array(rec["polyline"])
            )
            for rec in report["eac"]["per_pair"]
        }
        est = EacEstimate(report["eac"]["value"], per_pair, NEAR_BOUNDARY, 0.05, ())
        domain = geometry.load_domain(union3_file)
        for (i, j), rec in per_pair.items():
            x, y = NEAR_BOUNDARY[i], NEAR_BOUNDARY[j]
            build_ball_chain(domain, x, y, rec.ratio * (1 + 1e-9), est)

    def test_hull_bound_is_null_where_the_segment_leaves_the_l_polygon(self, capsys, tmp_path):
        # A curve round the reflex corner at clearance c <= 0.3 has
        # length / c >= 4.90 (two tangents and an arc), so no sound bound is
        # below 4.90.  The segment between the points crosses the missing
        # quadrant, so the segmental hull certifies nothing.
        vertices = [[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]]
        dom = tmp_path / "lpoly.json"
        dom.write_text(json.dumps({"dim": 2, "shape": {"type": "polygon", "vertices": vertices}}))
        points = [[0.5, -0.3], [-0.3, 0.5]]
        pts = tmp_path / "corner.json"
        pts.write_text(json.dumps({"points": points}))
        assert entropy.eac_hull_bound(geometry.load_domain(str(dom)), points) == math.inf
        argv = ["set", "eac", "--domain", str(dom), "--set", str(pts), "--grid", "0.02"]
        code, out = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("set_report.schema.json"))
        assert report["eac"]["hull_bound"] is None
        assert report["eac"]["value"] >= 4.90
        with pytest.raises(SystemExit) as refused:
            main(argv + ["--hull", "star"])
        assert refused.value.code == 2

    def test_sep(self, capsys, disk_file, pair_file):
        code, out = run(
            capsys,
            [
                "set", "sep", "--domain", disk_file, "--set", pair_file,
                "--start=-0.4,0", "--hops", "2", "--grid", "0.1",
            ],
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("set_report.schema.json"))
        assert report["sep"]["value"] < 1.0
        assert report["sep_harnack_bound"] > 1.0

    @pytest.mark.parametrize("grid", ["0", "-0.1"])
    def test_sep_non_positive_grid_exits_2(self, capsys, disk_file, pair_file, grid):
        argv = ["set", "sep", "--domain", disk_file, "--set", pair_file, "--start=-0.4,0",
                "--grid", grid]
        assert main(argv) == 2
        assert "grid step must be positive and finite" in capsys.readouterr().err

    def test_sep_bound_overflow_is_null(self, capsys, disk_file, pair_file):
        code, out = run(
            capsys,
            [
                "set", "sep", "--domain", disk_file, "--set", pair_file,
                "--start=-0.4,0", "--hops", "300", "--grid", "0.2",
            ],
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("set_report.schema.json"))
        assert report["sep"]["value"] < 1.0
        assert report["sep_harnack_bound"] is None

    def test_bound_reports_both(self, capsys, disk_file, pair_file):
        code, out = run(
            capsys,
            [
                "set", "bound", "--domain", disk_file, "--set", pair_file,
                "--start=-0.4,0", "--hops", "2", "--grid", "0.1",
            ],
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("set_report.schema.json"))
        assert "eac_harnack_bound" in report
        assert "sep_harnack_bound" in report

    def test_bound_evaluates_the_lattice_candidates_once(self, capsys, monkeypatch, disk_file, pair_file):
        sizes = []
        clearance = geometry.Ball.clearance

        def recording(self, pts):
            sizes.append(len(np.atleast_2d(pts)))
            return clearance(self, pts)

        monkeypatch.setattr(geometry.Ball, "clearance", recording)
        argv = ["set", "bound", "--domain", disk_file, "--set", pair_file, "--start=-0.4,0",
                "--grid", "0.1"]
        code, _ = run(capsys, argv)
        assert code == 0
        candidates = geometry.lattice_candidates(geometry.load_domain(disk_file), 0.1)
        assert sizes.count(candidates) == 1

    def test_dimension_refusal_exits_3(self, capsys, box3d_file, tmp_path):
        pts = tmp_path / "p4.json"
        pts.write_text(json.dumps({"points": [[0, 0, 0, 0], [0.5, 0, 0, 0]]}))
        code = main(
            ["set", "sep", "--domain", box3d_file, "--set", str(pts),
             "--start=0,0,0,0", "--hops", "1", "--grid", "0.5"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["sandwich", "--pair=-0.5,0;0.5,0"],
            ["set", "eac", "--set", "PAIRS"],
            ["set", "bound", "--set", "PAIRS", "--start=-0.4,0"],
        ],
        ids=["sandwich", "set-eac", "set-bound"],
    )
    def test_lattice_budget_refusal_exits_4(self, capsys, monkeypatch, disk_file, pair_file, argv):
        # the unit disk at h = 1e-4 has about 4e8 lattice candidates (6 GB of
        # coordinates); the refusal must come from the count, before any mesh
        def no_mesh(*args, **kwargs):
            raise AssertionError("lattice mesh built before the budget check")

        monkeypatch.setattr(np, "meshgrid", no_mesh)
        argv = [pair_file if a == "PAIRS" else a for a in argv]
        tracemalloc.start()
        try:
            code = main(argv + ["--domain", disk_file, "--grid", "1e-4"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 8 * 2**20
        err = capsys.readouterr().err
        assert "lattice candidates" in err and "coarser --grid" in err

    def test_determinism(self, capsys, disk_file, pair_file):
        argv = ["set", "eac", "--domain", disk_file, "--set", pair_file, "--grid", "0.1"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2


class TestPlot:
    def test_domain_only(self, tmp_path, disk_file):
        out = tmp_path / "plot.svg"
        assert main(["plot", "--domain", disk_file, "--out", str(out)]) == 0
        doc = out.read_text()
        assert doc.count("<circle") == 1
        assert doc.startswith("<?xml")

    def test_chain_circle_count(self, tmp_path, disk_file):
        chain = tmp_path / "chain.json"
        chain.write_text(
            json.dumps(
                {"centers": [[x, 0.0] for x in np.linspace(-0.5, 0.5, 5)], "radius": 0.4}
            )
        )
        out = tmp_path / "plot.svg"
        assert main(["plot", "--domain", disk_file, str(chain), "--out", str(out)]) == 0
        doc = out.read_text()
        assert doc.count("<circle") == 6  # 5 chain balls + the domain disk

    def test_determinism(self, tmp_path, disk_file, pair_file):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", "--domain", disk_file, pair_file, "--out", str(a)])
        main(["plot", "--domain", disk_file, pair_file, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_set_bound_report_draws_both_witness_kinds(self, capsys, tmp_path, disk_file):
        pts = tmp_path / "three.json"
        pts.write_text(json.dumps({"points": [[0.5, 0.1], [-0.6, 0.3], [0.1, -0.7]]}))
        report = tmp_path / "bound.json"
        argv = ["set", "bound", "--domain", disk_file, "--set", str(pts), "--start=0,0",
                "--grid", "0.1", "--out", str(report)]
        assert main(argv) == 0
        out = tmp_path / "plot.svg"
        assert main(["plot", "--domain", disk_file, str(report), "--out", str(out)]) == 0
        # 3 eac witnesses, one per pair, and 3 sep witnesses, one per target
        assert out.read_text().count("<path") == 6

    @pytest.mark.parametrize(
        "text",
        ["5", '{"points": 3}', '{"eac": {"per_pair": [{"polyline": 7}]}}', '{"sep": [1]}'],
    )
    def test_malformed_artifact_exits_2(self, capsys, tmp_path, disk_file, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "plot.svg"
        assert main(["plot", "--domain", disk_file, str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_artifact_exits_2(self, tmp_path, disk_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"weird": 1}))
        out = tmp_path / "plot.svg"
        assert main(["plot", "--domain", disk_file, str(bad), "--out", str(out)]) == 2

    def test_3d_domain_rejected(self, tmp_path):
        dom = tmp_path / "cube.json"
        dom.write_text(
            json.dumps({"dim": 3, "shape": {"type": "box", "min": [-1, -1, -1], "max": [1, 1, 1]}})
        )
        out = tmp_path / "plot.svg"
        assert main(["plot", "--domain", str(dom), "--out", str(out)]) == 2


class TestFileSchemas:
    def test_domain_and_pointset_files_validate(self, disk_file, pair_file):
        jsonschema.validate(json.load(open(disk_file)), schema("domain.schema.json"))
        jsonschema.validate(json.load(open(pair_file)), schema("pointset.schema.json"))


# Arbitrary JSON, with the keys and shape names of the file formats among
# the dictionary keys and strings, so that some documents get past the
# first lookups.
KEYS = ["dim", "shape", "type", "center", "radius", "min", "max", "vertices", "balls", "points"]
SHAPES = ["ball", "box", "polygon", "union_of_balls"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(SHAPES)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)
SHAPE_LIKE = st.builds(
    lambda kind, rest: {**rest, "type": kind},
    st.sampled_from(SHAPES),
    st.dictionaries(st.sampled_from(KEYS), JSON, max_size=3),
)
VALID_DOMAINS = [
    {"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 1}},
    {"dim": 3, "shape": {"type": "box", "min": [-1, -1, -1], "max": [1, 1, 1]}},
    {"dim": 2, "shape": {"type": "polygon",
                         "vertices": [[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]]}},
]
VALID_SETS = [
    {"points": [[0.1, -0.2], [-0.3, -0.4]]},
    {"points": [[0.1, 0.2, 0.3]]},
    {"points": [[0, 0], [0, 0]]},
]
DOMAIN_FILES = (
    JSON
    | st.builds(lambda dim, shape: {"dim": dim, "shape": shape}, st.sampled_from([2, 3]) | JSON,
                SHAPE_LIKE)
    | st.sampled_from(VALID_DOMAINS)
)
SET_FILES = JSON | st.builds(lambda p: {"points": p}, JSON) | st.sampled_from(VALID_SETS)


class TestLoaderFuzzing:
    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(domain=DOMAIN_FILES, points=SET_FILES)
    def test_any_json_exits_with_a_documented_code(self, tmp_path_factory, domain, points):
        tmp = tmp_path_factory.getbasetemp()
        dom, pts = tmp / "fuzz_domain.json", tmp / "fuzz_set.json"
        dom.write_text(json.dumps(domain))
        pts.write_text(json.dumps(points))
        argv = ["set", "eac", "--domain", str(dom), "--set", str(pts), "--grid", "0.5"]
        assert main(argv) in (0, 2, 3, 4)

    @pytest.mark.parametrize(
        "kind,text",
        [
            ("domain", '{"dim": 2, "shape": [1]}'),
            ("domain", "[1, 2]"),
            ("domain", '{"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": null}}'),
            ("point-set", '{"points": {"a": 1}}'),
            ("point-set", "[1, 2]"),
        ],
    )
    def test_malformed_structure_names_the_file_kind(self, capsys, tmp_path, disk_file, kind, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        domain, points = (str(bad), disk_file) if kind == "domain" else (disk_file, str(bad))
        assert main(["set", "eac", "--domain", domain, "--set", points]) == 2
        assert f"malformed {kind} file" in capsys.readouterr().err


def _ball_point(center, radius, direction, reach):
    w = np.asarray(direction[: center.size])
    n = np.linalg.norm(w)
    return center + radius * reach * w / n if n > 0 else center


class TestSandwichSoundnessOnBalls:
    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        dim=st.sampled_from([2, 3]),
        center=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        radius=st.floats(0.2, 3.0),
        directions=st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), min_size=2, max_size=2
        ),
        reach=st.lists(st.floats(0.0, 0.95), min_size=2, max_size=2),
    )
    def test_lower_exact_upper(self, tmp_path_factory, dim, center, radius, directions, reach):
        c = np.asarray(center[:dim])
        x, y = (_ball_point(c, radius, w, r) for w, r in zip(directions, reach))
        tmp = tmp_path_factory.getbasetemp()
        domain, out = tmp / "sound_ball.json", tmp / "sound_report.json"
        shape = {"type": "ball", "center": c.tolist(), "radius": radius}
        domain.write_text(json.dumps({"dim": dim, "shape": shape}))
        pair = ";".join(",".join(repr(float(t)) for t in p) for p in (x, y))
        argv = ["sandwich", "--domain", str(domain), f"--pair={pair}", "--grid", repr(radius / 4),
                "--out", str(out)]
        code = main(argv)
        report = json.loads(out.read_text())
        lower, exact = report["lower"]["value"], report["exact"]
        uppers = [v for v in report["uppers"].values() if v is not None]
        assert lower <= exact
        assert all(exact <= u * (1 + 1e-12) for u in uppers)
        ball, rho = geometry.Ball(c, radius), float(np.linalg.norm(x - y))
        enclosing = max(ball_harnack_from_center(dim, ball.enclosing_radius(p), rho) for p in (x, y))
        assert lower >= enclosing * (1 - 1e-11)
        assert report["verdict"] == "consistent"
        assert code == 0
