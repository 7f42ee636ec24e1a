"""The package's public names and the CLI's options: a change to them
shows in these lists, and the README's library example runs as written."""

import argparse
from pathlib import Path

import pytest

import harnack
from harnack import cli, geometry

PUBLIC = [
    "Ball",
    "BallChain",
    "Box",
    "EacEstimate",
    "Lattice",
    "LowerBoundCertificate",
    "Polygon2D",
    "SeparationResult",
    "UnionOfBalls",
    "ball_harnack_from_center",
    "ball_harnack_two_points",
    "build_ball_chain",
    "chain_bound",
    "diameter",
    "eac_estimate",
    "eac_harnack_bound",
    "eac_hull_bound",
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

GEOMETRY = [
    "Ball",
    "Box",
    "Lattice",
    "Polygon2D",
    "UnionOfBalls",
    "certified_segment_clearances",
    "diameter",
    "hull_clearance",
    "interior_clearances",
    "load_domain",
    "load_point_set",
]

# each subcommand's option strings, or a positional's name, in parser order
CLI_OPTIONS = {
    "ball": ["--dim", "--radius", "--rho"],
    "sandwich": ["--domain", "--pair", "--hops", "--grid", "--out"],
    "set": ["what", "--domain", "--set", "--start", "--hops", "--grid", "--out"],
    "plot": ["--domain", "artifacts", "--out"],
}


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(harnack.__all__) == PUBLIC
    assert len(set(harnack.__all__)) == len(harnack.__all__)


def test_geometry_names_are_pinned():
    assert GEOMETRY == sorted(GEOMETRY)
    assert sorted(geometry.__all__) == GEOMETRY
    assert len(set(geometry.__all__)) == len(geometry.__all__)


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [
            o
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
            for o in (a.option_strings or [a.dest])
        ]
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS


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
