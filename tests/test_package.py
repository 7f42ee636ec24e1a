"""The package's public names: a change to them shows in this list, and
the README's library example runs as written."""

from pathlib import Path

import pytest

import harnack

PUBLIC = [
    "Ball",
    "BallChain",
    "Box",
    "EacEstimate",
    "Lattice",
    "LowerBoundCertificate",
    "PointSet",
    "Polygon2D",
    "SeparationResult",
    "UnionOfBalls",
    "ball_harnack_from_center",
    "ball_harnack_two_points",
    "build_ball_chain",
    "chain_bound",
    "contains",
    "diameter",
    "disk_harnack_two_points",
    "dist_to_complement",
    "eac_estimate",
    "eac_harnack_bound",
    "eac_hull_bound",
    "enclosing_ball",
    "hull_clearance",
    "load_domain",
    "load_point_set",
    "pair_bound",
    "pair_separation",
    "poisson_witness_lower_bound",
    "sequence_separation",
    "set_harnack_bound",
    "set_separation",
    "verify_between_conditions",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(harnack.__all__) == PUBLIC
    assert len(set(harnack.__all__)) == len(harnack.__all__)


def test_every_public_name_resolves():
    for name in harnack.__all__:
        assert getattr(harnack, name, None) is not None, name


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    assert scope["est"].value == pytest.approx(2.008, abs=5e-4)
    assert scope["sep"].value == 0.25
